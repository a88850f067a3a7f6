//===- IncrementalEngine.cpp - Incremental re-analysis engine ----------------===//
//
// The equivalence argument, in one place.
//
// An incremental run must serialize to the exact bytes a from-scratch
// run would produce. Scratch state is a function of (program, options),
// so it suffices that every piece of state the snapshot captures —
// canonical locations, per-statement input sets, invocation-graph shape
// and memo sets, warnings — ends up equal. Reuse enters in exactly one
// way: trySeed() satisfies the *first* evaluation of a live node from a
// baseline donor subtree. That is valid when
//
//  (a) the donor root's function and every function in its subtree are
//      fingerprint-clean and outside the dirty closure, so the bodies
//      the skipped evaluation would have run are textually identical;
//  (b) the donor root evaluated exactly once in the baseline, so its
//      StoredInput is the single input its whole subtree state derives
//      from;
//  (c) no recursion back edge escapes the subtree, so the skipped
//      evaluation depended on no ancestor summary that may differ; and
//  (d) the live calling input equals the donor's input under canonical
//      structural keys (the same keys serve::capture sorts by).
//
// Under (a)-(d) a fresh evaluation is a deterministic replay of the
// baseline's, so grafting the recorded subtree — kinds, recursion
// edges, memoized IN/OUT, evaluation counts — reproduces its exact
// final state, and the skipped bodies' per-statement contributions are
// exactly the baseline's rows for those functions (restored afterwards,
// merged into live rows where both exist). The remaining gap is
// baseline evaluations of restored functions *outside* any fired graft:
// checkCoverage() proves each one is mirrored by an equal live
// evaluation, which makes
//   scratch contexts = live contexts  ∪  grafted baseline contexts
// an equality of per-statement joins and warning sets, not just an
// inclusion. Whenever any of this cannot be established the engine
// discards the run and re-analyzes from scratch, recording why.
//
// Restored rows need not become live sets. A restored function with no
// live row keeps its baseline rows in canonical form (CarriedRows).
// Every baseline id a row uses resolves to the live location with the
// same structural key, so capture's remap of the row through
// baseline-canon -> new-canon ids equals the flattening of the live set
// it would have built; capture re-sorts a row only when the remap
// breaks its order (a rename can move a key in canonical order). The
// function's read/write sets depend only on its IR
// (fingerprint-equal) and its rows (the baseline's, up to that
// renaming). Their names are structural except two program-wide
// counters that can shift under a clean function: `str$N` literals and
// the function's own `$tN` temporaries (a temp no row names, e.g. an
// int one, still appears in the sets). So the baseline's entries are
// reused only while the remap fixes every literal id the function's
// rows and entries name and the function's locals, temps included,
// have the baseline's names at every index; otherwise the rows are
// materialized as live sets and the client recomputes them, as for a
// function that also has live rows. (Today the fingerprint hashes raw
// local names, so a clean function's temps never move; the check keeps
// the reuse from depending on that.)
//
//===----------------------------------------------------------------------===//

#include "incr/IncrementalEngine.h"

#include "driver/Pipeline.h"
#include "ig/InvocationGraph.h"
#include "incr/CanonKeys.h"
#include "pointsto/Location.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace mcpta;
using namespace mcpta::incr;
namespace cf = mcpta::cfront;

//===----------------------------------------------------------------------===//
// Dirty closure
//===----------------------------------------------------------------------===//

std::set<std::string>
incr::computeDirtySet(const serve::ResultSnapshot &Baseline,
                      const ProgramMeta &Live) {
  const ProgramMeta &Base = Baseline.Meta;
  std::map<std::string, const FunctionMeta *> BF, LF;
  for (const FunctionMeta &F : Base.Functions)
    BF.emplace(F.Name, &F);
  for (const FunctionMeta &F : Live.Functions)
    LF.emplace(F.Name, &F);

  // Seed 1: functions whose own content changed (edited, definedness
  // flipped, new, or deleted — deleted names seed the closure through
  // their callers even though they are not live).
  std::set<std::string> Dirty;
  for (const auto &[Name, F] : LF) {
    auto It = BF.find(Name);
    if (It == BF.end() || It->second->Fingerprint != F->Fingerprint ||
        It->second->Defined != F->Defined)
      Dirty.insert(Name);
  }
  for (const auto &[Name, F] : BF)
    if (!LF.count(Name))
      Dirty.insert(Name);

  // Indirect calls have no CalleeNames edge, and extern callees have no
  // invocation-graph node either — so when any extern declaration is
  // among the content changes, every indirect-calling live function is
  // dirtied wholesale (the pointer could have reached it).
  bool ExternChanged = false;
  for (const std::string &Name : Dirty) {
    auto BIt = BF.find(Name);
    auto LIt = LF.find(Name);
    if ((BIt != BF.end() && !BIt->second->Defined) ||
        (LIt != LF.end() && !LIt->second->Defined))
      ExternChanged = true;
  }
  if (ExternChanged)
    for (const auto &[Name, F] : LF)
      if (F->HasIndirectCalls)
        Dirty.insert(Name);

  // Seed 2: referencers of changed globals. A GlobalInitFingerprint
  // mismatch means unattributable initializer statements changed, which
  // conservatively dirties every global.
  std::map<std::string, uint64_t> BG, LG;
  for (const GlobalMeta &G : Base.Globals)
    BG.emplace(G.Name, G.Fingerprint);
  for (const GlobalMeta &G : Live.Globals)
    LG.emplace(G.Name, G.Fingerprint);
  bool AllGlobals = Base.GlobalInitFingerprint != Live.GlobalInitFingerprint;
  std::set<std::string> ChangedGlobals;
  for (const auto &[Name, FP] : LG) {
    auto It = BG.find(Name);
    if (AllGlobals || It == BG.end() || It->second != FP)
      ChangedGlobals.insert(Name);
  }
  for (const auto &[Name, FP] : BG)
    if (!LG.count(Name))
      ChangedGlobals.insert(Name);
  if (!ChangedGlobals.empty())
    for (const auto &[Name, F] : LF) {
      if (Dirty.count(Name))
        continue;
      for (const std::string &G : F->GlobalRefs)
        if (ChangedGlobals.count(G)) {
          Dirty.insert(Name);
          break;
        }
    }

  // Reverse closure: anything that calls a dirty function can observe
  // its changed summary. Direct edges come from both metadata sides;
  // indirect edges from the baseline invocation graph's parent links
  // (the live graph does not exist yet — live-only indirect edges into
  // a dirty callee can only originate in functions that are themselves
  // already dirty, since creating a new indirect edge requires a
  // changed function-pointer value).
  std::map<std::string, std::set<std::string>> Rev;
  for (const auto &[Name, F] : BF)
    for (const std::string &C : F->CalleeNames)
      Rev[C].insert(Name);
  for (const auto &[Name, F] : LF)
    for (const std::string &C : F->CalleeNames)
      Rev[C].insert(Name);
  for (const serve::IGNodeRecord &N : Baseline.IG)
    if (N.Parent >= 0 && (size_t)N.Parent < Baseline.IG.size())
      Rev[N.Function].insert(Baseline.IG[N.Parent].Function);

  std::vector<std::string> Work(Dirty.begin(), Dirty.end());
  while (!Work.empty()) {
    std::string N = std::move(Work.back());
    Work.pop_back();
    auto It = Rev.find(N);
    if (It == Rev.end())
      continue;
    for (const std::string &Caller : It->second)
      if (Dirty.insert(Caller).second)
        Work.push_back(Caller);
  }

  // The root context re-evaluates unconditionally, and keeping main out
  // of the donor pool keeps the special-cased top-level invocation away
  // from the graft machinery.
  Dirty.insert("main");
  return Dirty;
}

//===----------------------------------------------------------------------===//
// The seeding session
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t NoId = UINT32_MAX;

class IncrSession : public pta::MemoSeeder {
public:
  IncrSession(const serve::ResultSnapshot &Baseline,
              const ProgramMeta &LiveMeta, const std::set<std::string> &Dirty)
      : Baseline(Baseline), LiveMeta(LiveMeta), Dirty(Dirty) {}

  void begin(const simple::Program &P, pta::InvocationGraph &G,
             pta::LocationTable &L) override;
  bool trySeed(pta::IGNode *Node, const pta::PointsToSet &Input) override;

  bool failed() const { return Failed; }
  uint64_t seedHits() const { return SeedHits; }
  uint64_t memoReuse() const { return MemoReuse; }

  /// Proves every baseline evaluation of a restored function outside the
  /// fired grafts is mirrored by an equal live evaluation. Must pass
  /// before restore(); a failure demands a full re-analysis.
  bool checkCoverage(const pta::Analyzer::Result &Res);

  /// Brings the skipped evaluations' per-statement rows and warnings
  /// back into the run. A restored function none of whose statements has
  /// a live set keeps its baseline rows in canonical form (\p Carried,
  /// for capture), as long as its local names are the baseline's and no
  /// literal id its rows or its read/write entries use has moved; every
  /// other restored row is built as a live set and merged into \p Res.
  /// Returns false when some baseline row cannot be mapped into the live
  /// program (full re-analysis required).
  bool restore(pta::Analyzer::Result &Res, serve::CarriedRows &Carried);
  uint64_t rowsCarried() const { return RowsCarried; }
  uint64_t rowsMaterialized() const { return RowsMaterialized; }

private:
  /// A donor root, found by its function and the hash of its canonical
  /// input.
  struct Donor {
    uint64_t Hash;
    uint32_t Node;
    bool operator<(const Donor &O) const {
      return Hash != O.Hash ? Hash < O.Hash : Node < O.Node;
    }
  };

  bool applyGraft(pta::IGNode *LiveRoot, uint32_t D,
                  const pta::PointsToSet &Input);
  const std::vector<Donor> &donorsOf(uint32_t F);
  uint32_t fnNamed(std::string_view Name) const;
  uint32_t fnOf(const cf::FunctionDecl *F) const;
  std::optional<uint32_t> liveString(uint32_t B) const;
  bool literalMoved(uint32_t Bid);
  bool usesMovedLiteral(uint32_t F,
                        const std::vector<std::pair<uint32_t, uint32_t>> &Rows,
                        size_t First);
  const pta::Location *resolveLive(uint32_t Bid);
  const pta::Location *resolveRecord(const serve::LocationRecord &R);
  std::optional<pta::PointsToSet> resolveSet(const serve::PackedSet &Ws);

  const serve::ResultSnapshot &Baseline;
  const ProgramMeta &LiveMeta;
  const std::set<std::string> &Dirty;

  pta::InvocationGraph *IG = nullptr;
  pta::LocationTable *Locs = nullptr;
  const cf::TranslationUnit *Unit = nullptr;

  // Functions are indexed by their position in LiveMeta.Functions; a
  // name names its first position, as TranslationUnit::findFunction
  // finds its first declaration.
  std::unordered_map<std::string_view, uint32_t> FnByName;
  std::unordered_map<const cf::FunctionDecl *, uint32_t> FnByDecl;
  std::vector<const cf::FunctionDecl *> DeclOf;
  std::vector<const FunctionMeta *> BaseFm; ///< same-named baseline meta
  /// Live function indices in name order: restore walks the restored
  /// functions in it, and resolveLive mints locations in that order.
  std::vector<uint32_t> ByName;
  std::vector<uint8_t> Clean, Restored, OnChain;
  /// Params then locals of each live function: the LocalIndex vocabulary.
  std::vector<std::vector<const cf::VarDecl *>> Vars;
  std::unordered_map<std::string_view, const cf::VarDecl *> LiveGlobalVars;

  /// Per baseline statement id: its index in Baseline.StmtIn, or -1.
  std::vector<int32_t> RowOf;
  std::map<uint32_t, uint32_t> StringRemap;
  bool StringsMoved = false;
  std::unordered_map<uint32_t, const cf::Type *> LiveStringTy;
  std::optional<CanonKeys> Keys;

  // The baseline graph, indexed by preorder position.
  std::vector<uint32_t> Size;   ///< subtree sizes
  std::vector<uint32_t> NodeFn; ///< live function index, or NoId
  std::vector<uint8_t> Grafted; ///< inside a fired graft
  /// Donor roots per live function, in node order; donorsOf() keys them
  /// by input hash on the function's first seeding attempt.
  struct FnDonors {
    std::vector<uint32_t> Nodes;
    std::vector<Donor> Keyed;
    bool IsKeyed = false;
  };
  std::vector<FnDonors> Donors;
  std::vector<CanonSet> DonorCanon; ///< by node, for keyed donors
  CanonSet LiveCanon;

  // Minted live locations per baseline record, with a 0/1/2 visit
  // status for cycle protection (SymParent indices are range-checked,
  // not topology-checked), and literal-move verdicts (0 unknown, 1
  // visiting, 2 fixed, 3 moved).
  std::vector<const pta::Location *> RMemo;
  std::vector<uint8_t> RStatus;
  std::vector<uint8_t> MovedMemo;

  bool Failed = false;
  uint64_t SeedHits = 0;
  uint64_t MemoReuse = 0;
  uint64_t RowsCarried = 0;
  uint64_t RowsMaterialized = 0;
};

uint32_t IncrSession::fnNamed(std::string_view Name) const {
  auto It = FnByName.find(Name);
  return It == FnByName.end() ? NoId : It->second;
}

uint32_t IncrSession::fnOf(const cf::FunctionDecl *F) const {
  auto It = FnByDecl.find(F);
  return It == FnByDecl.end() ? NoId : It->second;
}

std::optional<uint32_t> IncrSession::liveString(uint32_t B) const {
  auto It = StringRemap.find(B);
  if (It == StringRemap.end())
    return std::nullopt;
  return It->second;
}

void IncrSession::begin(const simple::Program &P, pta::InvocationGraph &G,
                        pta::LocationTable &L) {
  IG = &G;
  Locs = &L;
  Unit = &P.unit();

  const std::vector<FunctionMeta> &LF = LiveMeta.Functions;
  const size_t NF = LF.size();
  FnByName.reserve(NF);
  for (size_t I = 0; I < NF; ++I)
    FnByName.emplace(LF[I].Name, static_cast<uint32_t>(I));
  std::unordered_map<std::string_view, const FunctionMeta *> BaseByName;
  for (const FunctionMeta &F : Baseline.Meta.Functions)
    BaseByName.emplace(F.Name, &F);
  BaseFm.assign(NF, nullptr);
  for (const auto &[Name, I] : FnByName) {
    auto It = BaseByName.find(Name);
    if (It != BaseByName.end())
      BaseFm[I] = It->second;
  }
  ByName.clear();
  for (const auto &[Name, I] : FnByName)
    ByName.push_back(I);
  std::sort(ByName.begin(), ByName.end(),
            [&](uint32_t A, uint32_t B) { return LF[A].Name < LF[B].Name; });

  DeclOf.assign(NF, nullptr);
  Vars.assign(NF, {});
  for (const cf::FunctionDecl *F : Unit->functions()) {
    uint32_t I = fnNamed(F->name());
    if (I == NoId)
      continue;
    FnByDecl.emplace(F, I);
    if (!DeclOf[I])
      DeclOf[I] = F;
    for (const cf::VarDecl *Pv : F->params())
      Vars[I].push_back(Pv);
    if (const simple::FunctionIR *FIR = P.findFunction(F))
      for (const cf::VarDecl *V : FIR->Locals)
        Vars[I].push_back(V);
  }
  for (const cf::VarDecl *V : P.globals())
    LiveGlobalVars.emplace(V->name(), V);

  // Clean = defined on both sides, fingerprint-equal, outside the dirty
  // closure. The id-list length checks guard against the (astronomically
  // unlikely) hash collision that would break positional remapping: a
  // clean function's k-th statement, call site and literal in the
  // baseline are its k-th in the live program.
  Clean.assign(NF, 0);
  Restored.assign(NF, 0);
  OnChain.assign(NF, 0);
  for (const auto &[Name, I] : FnByName) {
    const FunctionMeta *BFm = BaseFm[I], *LFm = &LF[I];
    if (!BFm || !LFm->Defined || !BFm->Defined ||
        BFm->Fingerprint != LFm->Fingerprint || Dirty.count(LFm->Name))
      continue;
    if (BFm->CallSiteIds.size() != LFm->CallSiteIds.size() ||
        BFm->StmtIds.size() != LFm->StmtIds.size() ||
        BFm->StringIds.size() != LFm->StringIds.size())
      continue;
    Clean[I] = 1;
  }

  // Positional string-literal remap over clean functions (plus the
  // global initializer when unchanged). A baseline id two positions
  // disagree about is dropped entirely — unmappable, never guessed.
  std::set<uint32_t> Conflicts;
  auto AddPair = [&](uint32_t B, uint32_t Lv) {
    if (Conflicts.count(B))
      return;
    auto [It, New] = StringRemap.emplace(B, Lv);
    if (!New && It->second != Lv) {
      StringRemap.erase(It);
      Conflicts.insert(B);
    }
  };
  for (uint32_t I : ByName)
    if (Clean[I])
      for (size_t K = 0; K < BaseFm[I]->StringIds.size(); ++K)
        AddPair(BaseFm[I]->StringIds[K], LF[I].StringIds[K]);
  if (Baseline.Meta.GlobalInitFingerprint == LiveMeta.GlobalInitFingerprint &&
      Baseline.Meta.GlobalInitStringIds.size() ==
          LiveMeta.GlobalInitStringIds.size())
    for (size_t K = 0; K < Baseline.Meta.GlobalInitStringIds.size(); ++K)
      AddPair(Baseline.Meta.GlobalInitStringIds[K],
              LiveMeta.GlobalInitStringIds[K]);
  StringsMoved =
      !Conflicts.empty() ||
      std::any_of(StringRemap.begin(), StringRemap.end(),
                  [](const auto &Pr) { return Pr.first != Pr.second; });

  Keys.emplace(
      Baseline, P, L,
      [this](const std::string &Owner) {
        uint32_t I = fnNamed(Owner);
        return I != NoId && Clean[I];
      },
      [this](uint32_t B) { return liveString(B); });

  // Preorder subtree spans of the baseline graph: children carry larger
  // indices than their parent, so a reverse sweep accumulates final
  // subtree sizes. A parent index that is not strictly smaller marks a
  // malformed record; such nodes never become donors (guarded below).
  const auto &BIG = Baseline.IG;
  Size.assign(BIG.size(), 1);
  for (size_t I = BIG.size(); I-- > 1;) {
    int32_t Par = BIG[I].Parent;
    if (Par >= 0 && (size_t)Par < I)
      Size[Par] += Size[I];
  }
  NodeFn.assign(BIG.size(), NoId);
  std::vector<uint8_t> NodeClean(BIG.size(), 0);
  for (size_t I = 0; I < BIG.size(); ++I) {
    NodeFn[I] = fnNamed(BIG[I].Function);
    NodeClean[I] = NodeFn[I] != NoId && Clean[NodeFn[I]];
  }
  Grafted.assign(BIG.size(), 0);
  Donors.assign(NF, {});
  DonorCanon.assign(BIG.size(), {});
  for (size_t D = 0; D < BIG.size(); ++D) {
    const serve::IGNodeRecord &R = BIG[D];
    if (R.Kind == (uint8_t)pta::IGNode::Kind::Approximate)
      continue;
    if (!R.HasInput || R.EvalCount != 1 || !NodeClean[D])
      continue;
    if (D + Size[D] > BIG.size())
      continue;
    bool Ok = true;
    for (size_t J = D; J < D + Size[D] && Ok; ++J) {
      if (!NodeClean[J])
        Ok = false;
      else if (BIG[J].RecEdge >= 0 && (size_t)BIG[J].RecEdge < D)
        Ok = false; // recursion back edge escapes the subtree
      else if (J > D && (BIG[J].Parent < (int32_t)D ||
                         (size_t)BIG[J].Parent >= J))
        Ok = false; // malformed preorder
    }
    if (Ok)
      Donors[NodeFn[D]].Nodes.push_back((uint32_t)D);
  }

  // Statement ids are dense program-wide counters. A snapshot whose rows
  // are far sparser than that (a corrupt one) gets no index, and the
  // session fails rather than allocate by its claims.
  uint32_t MaxRowId = 0;
  for (const serve::StmtSetRecord &R : Baseline.StmtIn)
    MaxRowId = std::max(MaxRowId, R.StmtId);
  if (MaxRowId / 16 > Baseline.StmtIn.size() + (1u << 16)) {
    Failed = true;
    return;
  }
  RowOf.assign(Baseline.StmtIn.empty() ? 0 : size_t(MaxRowId) + 1, -1);
  for (size_t I = 0; I < Baseline.StmtIn.size(); ++I)
    if (RowOf[Baseline.StmtIn[I].StmtId] < 0)
      RowOf[Baseline.StmtIn[I].StmtId] = static_cast<int32_t>(I);

  RMemo.assign(Baseline.Locations.size(), nullptr);
  RStatus.assign(Baseline.Locations.size(), 0);
  MovedMemo.assign(Baseline.Locations.size(), 0);
}

//===----------------------------------------------------------------------===//
// Minting resolver: baseline record -> live location
//===----------------------------------------------------------------------===//

const pta::Location *IncrSession::resolveLive(uint32_t Bid) {
  if (Bid >= Baseline.Locations.size())
    return nullptr;
  if (RStatus[Bid] == 2)
    return RMemo[Bid];
  if (RStatus[Bid] == 1)
    return nullptr;
  RStatus[Bid] = 1;
  const pta::Location *L = resolveRecord(Baseline.Locations[Bid]);
  RStatus[Bid] = 2;
  RMemo[Bid] = L;
  return L;
}

const pta::Location *
IncrSession::resolveRecord(const serve::LocationRecord &R) {
  const pta::Entity *E = nullptr;
  switch ((pta::Entity::Kind)R.EntityKind) {
  case pta::Entity::Kind::Variable:
    if (R.Owner.empty()) {
      auto It = LiveGlobalVars.find(R.RootName);
      if (It == LiveGlobalVars.end())
        return nullptr;
      E = Locs->variable(It->second);
    } else {
      uint32_t F = fnNamed(R.Owner);
      if (F == NoId || R.LocalIndex < 0 ||
          (size_t)R.LocalIndex >= Vars[F].size())
        return nullptr;
      const cf::VarDecl *V = Vars[F][R.LocalIndex];
      if (V->name() != R.RootName)
        return nullptr;
      E = Locs->variable(V);
    }
    break;
  case pta::Entity::Kind::Retval: {
    uint32_t F = fnNamed(R.Owner);
    if (F == NoId)
      return nullptr;
    E = Locs->retval(DeclOf[F]);
    break;
  }
  case pta::Entity::Kind::Function: {
    uint32_t F = fnNamed(R.RootName);
    if (F == NoId)
      return nullptr;
    E = Locs->function(DeclOf[F]);
    break;
  }
  case pta::Entity::Kind::String: {
    std::optional<uint32_t> Id = liveString(R.StringId);
    if (!Id)
      return nullptr;
    if (LiveStringTy.empty()) {
      // Literal types, collected on the first literal resolved.
      auto Note = [this](const simple::Operand &O) {
        if (O.K == simple::Operand::Kind::StringConst)
          LiveStringTy.emplace(O.StringId, O.Ty);
      };
      for (const simple::FunctionIR &F : IG->program().functions())
        simple::walkOperands(F.Body, Note);
      simple::walkOperands(IG->program().globalInit(), Note);
    }
    auto TIt = LiveStringTy.find(*Id);
    if (TIt == LiveStringTy.end())
      return nullptr;
    E = Locs->stringLit(*Id, TIt->second);
    break;
  }
  case pta::Entity::Kind::Heap:
    E = Locs->heapEntity();
    break;
  case pta::Entity::Kind::Null:
    E = Locs->nullEntity();
    break;
  case pta::Entity::Kind::Symbolic: {
    if (R.SymParent < 0)
      return nullptr;
    const pta::Location *Parent = resolveLive((uint32_t)R.SymParent);
    if (!Parent || R.Owner.empty())
      return nullptr;
    uint32_t F = fnNamed(R.Owner);
    if (F == NoId)
      return nullptr;
    const cf::FunctionDecl *Frame = DeclOf[F];
    const pta::Entity *SE = Locs->symbolic(Frame, Parent);
    if (SE->symbolicLevel() != R.SymbolicLevel)
      return nullptr;
    if (R.Collapsed && !SE->isCollapsed()) {
      // The baseline run k-limit-folded this entity; replay the fold.
      // symbolic() collapses a parent at the level limit into itself.
      if (SE->symbolicLevel() < Locs->symbolicLevelLimit())
        return nullptr;
      const pta::Entity *Folded = Locs->symbolic(Frame, Locs->get(SE));
      if (Folded != SE || !SE->isCollapsed())
        return nullptr;
    }
    E = SE;
    break;
  }
  }
  if (!E)
    return nullptr;

  const pta::Location *L = Locs->get(E);
  size_t FieldCursor = 0;
  for (uint8_t PK : R.PathKinds) {
    switch (PK) {
    case 0: {
      if (FieldCursor >= R.FieldNames.size())
        return nullptr;
      const std::string &QF = R.FieldNames[FieldCursor++];
      size_t Pos = QF.find("::");
      if (Pos == std::string::npos)
        return nullptr;
      std::string RecName = QF.substr(0, Pos);
      std::string FldName = QF.substr(Pos + 2);
      const cf::RecordDecl *RD = nullptr;
      for (const cf::RecordDecl *Cand : Unit->records())
        if (Cand->name() == RecName) {
          if (RD)
            return nullptr; // ambiguous record name
          RD = Cand;
        }
      if (!RD)
        return nullptr;
      const cf::FieldDecl *FD = RD->findField(FldName);
      if (!FD)
        return nullptr;
      L = Locs->withField(L, FD);
      break;
    }
    case 1:
      L = Locs->withElem(L, true);
      break;
    case 2:
      L = Locs->withElem(L, false);
      break;
    default:
      return nullptr;
    }
  }
  return L;
}

std::optional<pta::PointsToSet>
IncrSession::resolveSet(const serve::PackedSet &Ws) {
  // One pass: map every word to live ids (in word order, since
  // resolveLive may mint locations), then sort and adopt once.
  std::vector<pta::PointsToSet::Entry> Es;
  Es.reserve(Ws.size());
  for (uint64_t W : Ws) {
    const pta::Location *Src = resolveLive(serve::tripleSrc(W));
    const pta::Location *Dst = resolveLive(serve::tripleDst(W));
    if (!Src || !Dst)
      return std::nullopt;
    Es.push_back(pta::PointsToSet::Entry::make(
        pta::PointsToSet::key(Src, Dst),
        serve::tripleDefinite(W) ? pta::Def::D : pta::Def::P));
  }
  return pta::PointsToSet::fromEntries(std::move(Es));
}

//===----------------------------------------------------------------------===//
// Seeding
//===----------------------------------------------------------------------===//

const std::vector<IncrSession::Donor> &IncrSession::donorsOf(uint32_t F) {
  FnDonors &FD = Donors[F];
  if (!FD.IsKeyed) {
    FD.IsKeyed = true;
    for (uint32_t D : FD.Nodes)
      if (Keys->baseline(Baseline.IG[D].Input, DonorCanon[D]))
        FD.Keyed.push_back({CanonKeys::hash(DonorCanon[D]), D});
    std::sort(FD.Keyed.begin(), FD.Keyed.end());
  }
  return FD.Keyed;
}

bool IncrSession::trySeed(pta::IGNode *Node, const pta::PointsToSet &Input) {
  if (Failed)
    return false;
  const uint32_t F = fnOf(Node->function());
  if (F == NoId)
    return false;
  const std::vector<Donor> &Cands = donorsOf(F);
  if (Cands.empty())
    return false;

  Keys->live(Input, LiveCanon);
  const uint64_t H = CanonKeys::hash(LiveCanon);
  // Candidates with this hash, in ascending node order: the first equal
  // donor without a clash fires.
  auto It = std::lower_bound(Cands.begin(), Cands.end(), Donor{H, 0});
  std::vector<uint32_t> Chain;
  bool Fired = false;
  for (; It != Cands.end() && It->Hash == H && !Fired; ++It) {
    const uint32_t D = It->Node;
    if (DonorCanon[D] != LiveCanon)
      continue;
    if (Chain.empty())
      for (pta::IGNode *A = Node->parent(); A; A = A->parent()) {
        uint32_t AF = fnOf(A->function());
        if (AF != NoId && !OnChain[AF]) {
          OnChain[AF] = 1;
          Chain.push_back(AF);
        }
      }
    // If any function of the donor subtree sits on the live ancestor
    // chain, grafting would splice in recursion the analyzer never
    // detected; skip the donor (a fresh evaluation handles it).
    bool Clash = false;
    for (uint32_t J = D; J < D + Size[D] && !Clash; ++J)
      Clash = OnChain[NodeFn[J]];
    if (Clash)
      continue;
    if (!applyGraft(Node, D, Input)) {
      // A partially applied graft cannot be unwound; poison the session
      // so the engine discards this run entirely.
      Failed = true;
      break;
    }
    ++SeedHits;
    for (uint32_t J = D; J < D + Size[D]; ++J) {
      MemoReuse += Baseline.IG[J].EvalCount;
      Restored[NodeFn[J]] = 1;
      Grafted[J] = 1;
    }
    Fired = true;
  }
  for (uint32_t AF : Chain)
    OnChain[AF] = 0;
  return Fired;
}

bool IncrSession::applyGraft(pta::IGNode *LiveRoot, uint32_t D,
                             const pta::PointsToSet &Input) {
  const auto &BIG = Baseline.IG;

  // Consistency check: canonical-key equality must coincide with actual
  // set equality once the donor input is minted into the live table. A
  // mismatch means the key logic diverged somewhere — fall back rather
  // than trust it.
  std::optional<pta::PointsToSet> RootIn = resolveSet(BIG[D].Input);
  if (!RootIn || !(*RootIn == Input))
    return false;

  // Live node of each span position (D + k at index k).
  std::vector<pta::IGNode *> LiveOf(Size[D], nullptr);
  for (uint32_t J = D; J < D + Size[D]; ++J) {
    const serve::IGNodeRecord &R = BIG[J];
    pta::IGNode *N;
    if (J == D) {
      N = LiveRoot;
      if (R.Kind == (uint8_t)pta::IGNode::Kind::Recursive &&
          !N->isRecursive())
        N->markRecursive();
      if ((uint8_t)N->kind() != R.Kind)
        return false;
    } else {
      // Preorder (checked at donor selection): D <= Parent < J. The
      // call site remaps positionally within the parent's function.
      pta::IGNode *ParentLive = LiveOf[R.Parent - D];
      const uint32_t PF = NodeFn[R.Parent];
      const std::vector<uint32_t> &BaseCS = BaseFm[PF]->CallSiteIds;
      auto CSIt = std::find(BaseCS.begin(), BaseCS.end(), R.CallSiteId);
      if (CSIt == BaseCS.end())
        return false;
      unsigned LiveCS =
          LiveMeta.Functions[PF].CallSiteIds[CSIt - BaseCS.begin()];
      const cf::FunctionDecl *Callee = DeclOf[NodeFn[J]];
      pta::IGNode *RecLive = nullptr;
      if (R.RecEdge >= 0) {
        if ((uint32_t)R.RecEdge < D || (uint32_t)R.RecEdge >= J)
          return false;
        RecLive = LiveOf[R.RecEdge - D];
      }
      auto Kind = static_cast<pta::IGNode::Kind>(R.Kind);
      if (pta::IGNode *Existing = ParentLive->findChild(LiveCS, Callee)) {
        // Eagerly-built direct child: overlay. The only legal kind drift
        // is Ordinary -> Recursive (the baseline discovered indirect
        // recursion the eager build could not see).
        if (Existing->kind() != Kind) {
          if (Kind == pta::IGNode::Kind::Recursive &&
              Existing->kind() == pta::IGNode::Kind::Ordinary)
            Existing->markRecursive();
          else
            return false;
        }
        if (Existing->recEdge() != RecLive)
          return false;
        N = Existing;
      } else {
        N = IG->graftChild(ParentLive, LiveCS, Callee, Kind, RecLive);
        if (!N)
          return false;
      }
    }
    LiveOf[J - D] = N;

    if (R.HasInput) {
      std::optional<pta::PointsToSet> In = resolveSet(R.Input);
      if (!In)
        return false;
      N->StoredInput = std::move(*In);
    } else {
      N->StoredInput.reset();
    }
    if (R.HasOutput) {
      std::optional<pta::PointsToSet> Out = resolveSet(R.Output);
      if (!Out)
        return false;
      N->StoredOutput = std::move(*Out);
    } else {
      N->StoredOutput.reset();
    }
    N->EvalCount = R.EvalCount;
    N->PendingList.clear();
    if (N->isRecursive())
      N->FixpointDone = true;
    // Replicate recordMemoDeps: versions of every recursive ancestor at
    // store time. Ancestors inside the span were just grafted (version
    // 0); outside ones carry their live mid-run versions — exactly what
    // a fresh evaluation finishing now would have recorded.
    N->MemoDeps.clear();
    for (pta::IGNode *A = N->parent(); A; A = A->parent())
      if (A->isRecursive())
        N->MemoDeps.emplace_back(A, A->SummaryVersion);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Coverage and restoration
//===----------------------------------------------------------------------===//

bool IncrSession::checkCoverage(const pta::Analyzer::Result &Res) {
  if (std::find(Restored.begin(), Restored.end(), 1) == Restored.end())
    return true;

  // Live evaluations of restored functions, by (function, input hash).
  struct LiveEval {
    uint32_t Fn;
    uint64_t Hash;
    uint8_t Kind;
    CanonSet Input;
  };
  std::vector<LiveEval> Live;
  Res.IG->forEachNode([&](const pta::IGNode *N) {
    if (N->EvalCount < 1 || !N->StoredInput)
      return;
    uint32_t F = fnOf(N->function());
    if (F == NoId || !Restored[F])
      return;
    LiveEval E{F, 0, (uint8_t)N->kind(), {}};
    Keys->live(*N->StoredInput, E.Input);
    E.Hash = CanonKeys::hash(E.Input);
    Live.push_back(std::move(E));
  });
  auto Less = [](const LiveEval &A, const LiveEval &B) {
    return A.Fn != B.Fn ? A.Fn < B.Fn : A.Hash < B.Hash;
  };
  std::sort(Live.begin(), Live.end(), Less);

  const auto &BIG = Baseline.IG;
  CanonSet C;
  for (uint32_t I = 0; I < BIG.size(); ++I) {
    const serve::IGNodeRecord &R = BIG[I];
    if (R.EvalCount == 0 || NodeFn[I] == NoId || !Restored[NodeFn[I]] ||
        Grafted[I])
      continue;
    // This baseline evaluation was not grafted: its per-statement rows
    // ride along in the wholesale function restore, so an equal live
    // evaluation must exist or the restored rows would over-approximate.
    if (R.EvalCount != 1 || !R.HasInput)
      return false;
    if (I + Size[I] > BIG.size())
      return false;
    for (uint32_t J = I; J < I + Size[I]; ++J)
      if (BIG[J].RecEdge >= 0 && (uint32_t)BIG[J].RecEdge < I)
        return false; // depended on an ancestor summary; not comparable
    if (!Keys->baseline(R.Input, C))
      return false;
    LiveEval Probe{NodeFn[I], CanonKeys::hash(C), 0, {}};
    auto [B, E] = std::equal_range(Live.begin(), Live.end(), Probe, Less);
    if (std::none_of(B, E, [&](const LiveEval &L) {
          return L.Kind == R.Kind && L.Input == C;
        }))
      return false;
  }
  return true;
}

bool IncrSession::literalMoved(uint32_t Bid) {
  if (Bid >= Baseline.Locations.size() || MovedMemo[Bid] == 1)
    return true; // out of range, or a SymParent cycle
  if (MovedMemo[Bid])
    return MovedMemo[Bid] == 3;
  MovedMemo[Bid] = 1;
  const serve::LocationRecord &R = Baseline.Locations[Bid];
  bool Moved = false;
  if (R.EntityKind == (uint8_t)pta::Entity::Kind::String)
    Moved = liveString(R.StringId) != std::optional<uint32_t>(R.StringId);
  else if (R.EntityKind == (uint8_t)pta::Entity::Kind::Symbolic &&
           R.SymParent >= 0)
    Moved = literalMoved((uint32_t)R.SymParent);
  MovedMemo[Bid] = Moved ? 3 : 2;
  return Moved;
}

bool IncrSession::usesMovedLiteral(
    uint32_t F, const std::vector<std::pair<uint32_t, uint32_t>> &Rows,
    size_t First) {
  for (size_t K = First; K < Rows.size(); ++K)
    for (uint64_t W : Baseline.StmtIn[Rows[K].second].Set)
      if (literalMoved(serve::tripleSrc(W)) ||
          literalMoved(serve::tripleDst(W)))
        return true;
  // Read/write entries name literals "str$N"; '$' appears in no source
  // identifier, so every occurrence is a literal id.
  const std::string &Name = LiveMeta.Functions[F].Name;
  for (const auto *M : {&Baseline.Reads, &Baseline.Writes})
    for (const std::string &Entry : M->at(Name))
      for (size_t P = Entry.find("str$"); P != std::string::npos;
           P = Entry.find("str$", P + 4)) {
        uint32_t Id = 0;
        size_t E = P + 4;
        for (; E < Entry.size() && Entry[E] >= '0' && Entry[E] <= '9'; ++E)
          Id = Id * 10 + static_cast<uint32_t>(Entry[E] - '0');
        if (E > P + 4 && liveString(Id) != std::optional<uint32_t>(Id))
          return true;
      }
  return false;
}

bool IncrSession::restore(pta::Analyzer::Result &Res,
                          serve::CarriedRows &Carried) {
  // Every restored row as (live statement id, baseline row index), split
  // by whether its function's rows are carried or built as live sets.
  std::vector<std::pair<uint32_t, uint32_t>> Carry, Materialize;
  for (uint32_t F : ByName) {
    if (!Restored[F])
      continue;
    const FunctionMeta *BFm = BaseFm[F], *LFm = &LiveMeta.Functions[F];
    if (!BFm || !Clean[F])
      return false;
    // Read/write entries also name the function's own locals, `$tN`
    // temporaries included, which are program-wide counters too.
    bool CarryFn = BFm->LocalNames == LFm->LocalNames &&
                   Baseline.Reads.count(LFm->Name) &&
                   Baseline.Writes.count(LFm->Name);
    for (uint32_t LS : LFm->StmtIds)
      if (LS < Res.StmtIn.size() && Res.StmtIn[LS])
        CarryFn = false; // a live row: the function's client sets change
    auto &Rows = CarryFn ? Carry : Materialize;
    const size_t First = Rows.size();
    for (size_t K = 0; K < BFm->StmtIds.size(); ++K) {
      uint32_t BS = BFm->StmtIds[K];
      if (BS >= RowOf.size() || RowOf[BS] < 0)
        continue; // statement never reached in the baseline
      if (LFm->StmtIds[K] >= Res.StmtIn.size())
        return false;
      Rows.emplace_back(LFm->StmtIds[K], static_cast<uint32_t>(RowOf[BS]));
    }
    // String-literal ids are program-wide counters that shift under
    // clean functions, and read/write entries name literals by them.
    if (CarryFn && StringsMoved && usesMovedLiteral(F, Carry, First)) {
      Materialize.insert(Materialize.end(), Carry.begin() + First,
                         Carry.end());
      Carry.resize(First);
      CarryFn = false;
    }
    if (CarryFn)
      Carried.BaselineRW.push_back(LFm->Name);
  }

  // Carried rows stay in baseline canonical ids. Each id they use is
  // resolved once, so an unmappable one still fails the restore, and
  // capture learns the live location it names now.
  const size_t NB = Baseline.Locations.size();
  std::vector<uint8_t> Used(NB, 0);
  for (const auto &[Live, Row] : Carry)
    for (uint64_t W : Baseline.StmtIn[Row].Set) {
      if (serve::tripleSrc(W) >= NB || serve::tripleDst(W) >= NB)
        return false;
      Used[serve::tripleSrc(W)] = Used[serve::tripleDst(W)] = 1;
    }
  Carried.LiveLoc.assign(NB, serve::CarriedRows::NotUsed);
  for (uint32_t B = 0; B < NB; ++B)
    if (Used[B]) {
      const pta::Location *L = resolveLive(B);
      if (!L)
        return false;
      Carried.LiveLoc[B] = L->id();
    }
  // Distinct structural keys resolve to distinct live locations; two
  // baseline ids naming one would collide in the carried words.
  std::vector<uint8_t> Taken(Locs->numLocations(), 0);
  for (pta::LocationId L : Carried.LiveLoc)
    if (L != serve::CarriedRows::NotUsed && Taken[L]++)
      return false;

  Carried.Baseline = &Baseline;
  Carried.RowAt.assign(Res.StmtIn.size(), -1);
  for (const auto &[Live, Row] : Carry)
    Carried.RowAt[Live] = static_cast<int32_t>(Row);
  for (const auto &[Live, Row] : Materialize) {
    std::optional<pta::PointsToSet> Set = resolveSet(Baseline.StmtIn[Row].Set);
    if (!Set)
      return false;
    if (Res.StmtIn[Live])
      Res.StmtIn[Live]->mergeWith(*Set);
    else
      Res.StmtIn[Live] = std::move(*Set);
  }
  RowsCarried = Carry.size();
  RowsMaterialized = Materialize.size();

  // The live warning log is keyed by FunctionDecl; a restored function
  // is clean, so defined in the live program.
  std::set<std::string> Seen(Res.Warnings.begin(), Res.Warnings.end());
  for (uint32_t F : ByName) {
    if (!Restored[F])
      continue;
    auto It = Baseline.WarningsByFn.find(LiveMeta.Functions[F].Name);
    if (It == Baseline.WarningsByFn.end())
      continue;
    for (const std::string &Msg : It->second) {
      Res.WarningsByFn.add(DeclOf[F], Msg);
      if (Seen.insert(Msg).second)
        Res.Warnings.push_back(Msg);
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine driver
//===----------------------------------------------------------------------===//

IncrOutput IncrementalEngine::reanalyze(const serve::ResultSnapshot *Baseline,
                                        const std::string &Source,
                                        const pta::Analyzer::Options &Opts,
                                        support::Telemetry *Telem) {
  IncrOutput O = analyze(Baseline, Source, Opts, Telem);
  if (O.Ok)
    O.Blob = serve::serialize(O.Snapshot);
  return O;
}

IncrOutput IncrementalEngine::analyze(const serve::ResultSnapshot *Baseline,
                                      const std::string &Source,
                                      const pta::Analyzer::Options &Opts,
                                      support::Telemetry *Telem) {
  IncrOutput O;
  std::string OptsFP = serve::optionsFingerprint(Opts);
  // The program is parsed into O.Frontend at most once; every path that
  // analyzes it reads its metadata from O.Meta.
  Pipeline &FE = O.Frontend;
  auto Parse = [&]() -> bool {
    FE = Pipeline::frontend(Source);
    if (!FE.Prog || FE.Diags.hasErrors()) {
      O.Diags = std::move(FE.Diags);
      FE = Pipeline();
      return false;
    }
    O.Meta = computeMeta(*FE.Prog);
    return true;
  };
  auto Finish = [&](const pta::Analyzer::Result &Res,
                    const serve::CarriedRows *Carried) {
    O.Snapshot =
        serve::ResultSnapshot::capture(*FE.Prog, Res, OptsFP, O.Meta, Carried);
    O.Ok = true;
  };

  auto FullRun = [&](std::string Reason) -> IncrOutput {
    // Without a baseline there is nothing to fall back from.
    if (Telem && Baseline)
      Telem->add("incr.fallback." + Reason, 1);
    O.Stats.UsedIncremental = false;
    O.Stats.FallbackReason = std::move(Reason);
    if (FE.Prog || Parse()) {
      pta::Analyzer::Options FOpts = Opts;
      FOpts.Seeder = nullptr;
      if (Telem)
        FOpts.Telem = Telem;
      Finish(pta::Analyzer::run(*FE.Prog, FOpts), nullptr);
    }
    return std::move(O);
  };

  if (!Baseline)
    return FullRun("no-baseline");
  if (OptsFP != Baseline->OptionsFingerprint)
    return FullRun("options-mismatch");
  if (!Opts.ContextSensitive || Opts.FnPtr != pta::FnPtrMode::Precise ||
      Opts.Limits.any())
    return FullRun("options-unsupported");
  if (!Baseline->Analyzed)
    return FullRun("baseline-unanalyzed");
  if (Baseline->degraded())
    return FullRun("baseline-degraded");

  if (!Parse()) {
    if (Telem)
      Telem->add("incr.fallback.frontend-error", 1);
    O.Stats.FallbackReason = "frontend-error";
    return O;
  }

  if (O.Meta.TypesFingerprint != Baseline->Meta.TypesFingerprint)
    return FullRun("types-changed");
  const cfront::FunctionDecl *Main = FE.Unit->findFunction("main");
  if (!Main || !FE.Prog->findFunction(Main))
    return FullRun("no-main");

  std::set<std::string> Dirty = computeDirtySet(*Baseline, O.Meta);
  uint64_t DirtyLive = 0;
  for (const FunctionMeta &F : O.Meta.Functions)
    if (F.Defined && Dirty.count(F.Name))
      ++DirtyLive;
  O.Stats.DirtyFunctions = DirtyLive;
  if (Telem)
    Telem->add("incr.dirty_functions", DirtyLive);

  IncrSession Session(*Baseline, O.Meta, Dirty);
  pta::Analyzer::Options IOpts = Opts;
  IOpts.Seeder = &Session;
  if (Telem)
    IOpts.Telem = Telem;
  pta::Analyzer::Result Res = pta::Analyzer::run(*FE.Prog, IOpts);

  if (Session.failed())
    return FullRun("graft-failed");
  if (!Res.Analyzed)
    return FullRun("analysis-failed");
  if (!Session.checkCoverage(Res))
    return FullRun("coverage");
  serve::CarriedRows Carried;
  if (!Session.restore(Res, Carried))
    return FullRun("restore-failed");

  O.Stats.MemoReuse = Session.memoReuse();
  O.Stats.SeedHits = Session.seedHits();
  O.Stats.RowsCarried = Session.rowsCarried();
  O.Stats.RowsMaterialized = Session.rowsMaterialized();
  if (Telem) {
    Telem->add("incr.memo_reuse", O.Stats.MemoReuse);
    Telem->add("incr.seed_hits", O.Stats.SeedHits);
    Telem->add("incr.rows_carried", O.Stats.RowsCarried);
    Telem->add("incr.rows_materialized", O.Stats.RowsMaterialized);
  }
  Finish(Res, &Carried);
  O.Stats.UsedIncremental = true;
  return O;
}
