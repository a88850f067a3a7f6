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
// reused only while the string remap is the identity and the
// function's locals, temps included, have the baseline's names at
// every index; otherwise the rows are materialized as live sets and
// the client recomputes them, as for a function that also has live
// rows. (Today the fingerprint hashes raw local names, so a clean
// function's temps never move; the check keeps the reuse from
// depending on that.)
//
//===----------------------------------------------------------------------===//

#include "incr/IncrementalEngine.h"

#include "driver/Pipeline.h"
#include "ig/InvocationGraph.h"
#include "pointsto/Location.h"

#include <algorithm>
#include <map>
#include <optional>
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

class IncrSession : public pta::MemoSeeder {
public:
  IncrSession(const serve::ResultSnapshot &Baseline, const ProgramMeta &LiveMeta,
              const std::set<std::string> &Dirty)
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
  /// for capture), as long as no string-literal id moved and its local
  /// names are the baseline's; every other
  /// restored row is built as a live set and merged into \p Res. Returns
  /// false when some baseline row cannot be mapped into the live program
  /// (full re-analysis required).
  bool restore(pta::Analyzer::Result &Res, serve::CarriedRows &Carried);
  uint64_t rowsCarried() const { return RowsCarried; }
  uint64_t rowsMaterialized() const { return RowsMaterialized; }

private:
  bool applyGraft(pta::IGNode *LiveRoot, uint32_t D,
                  const pta::PointsToSet &Input);
  const pta::Location *resolveLive(uint32_t Bid);
  const pta::Location *resolveRecord(const serve::LocationRecord &R);
  std::optional<pta::PointsToSet> resolveSet(const serve::PackedSet &Ws);
  const std::string &rk(uint32_t Bid);
  std::optional<std::string> canonBaselineSet(const serve::PackedSet &Ws);
  std::string canonLiveSet(const pta::PointsToSet &S);
  const std::string *donorCanon(uint32_t D);
  void collectStringTypes(const simple::Stmt *S);

  const serve::ResultSnapshot &Baseline;
  const ProgramMeta &LiveMeta;
  const std::set<std::string> &Dirty;

  const simple::Program *Prog = nullptr;
  pta::InvocationGraph *IG = nullptr;
  pta::LocationTable *Locs = nullptr;
  const cf::TranslationUnit *Unit = nullptr;

  std::map<std::string, const FunctionMeta *> BaseFns, LiveFns;
  std::set<std::string> Clean;
  std::map<std::string, std::map<uint32_t, uint32_t>> CallSiteRemap, StmtRemap;
  std::map<uint32_t, uint32_t> StringRemap;
  std::map<unsigned, const cf::Type *> LiveStringTy;
  std::map<std::string, const cf::VarDecl *> LiveGlobalVars;
  std::map<std::string, std::vector<const cf::VarDecl *>> LiveFnVars;
  std::optional<serve::StructuralKeys> LiveKeys;

  std::vector<uint32_t> Size; ///< preorder subtree sizes of Baseline.IG
  std::map<std::string, std::vector<uint32_t>> DonorsByFn;
  std::map<uint32_t, size_t> StmtRowById;

  // Memoized baseline-record keys ("" = unmappable) and minted live
  // locations, each with a 0/1/2 visit status for cycle protection
  // (SymParent indices are range-checked, not topology-checked).
  std::vector<std::string> RkMemo;
  std::vector<uint8_t> RkStatus;
  std::vector<const pta::Location *> RMemo;
  std::vector<uint8_t> RStatus;
  std::map<uint32_t, std::optional<std::string>> DonorCanonMemo;

  std::vector<std::pair<uint32_t, uint32_t>> FiredSpans;
  std::set<std::string> RestoredFns;
  bool Failed = false;
  uint64_t SeedHits = 0;
  uint64_t MemoReuse = 0;
  uint64_t RowsCarried = 0;
  uint64_t RowsMaterialized = 0;
};

void IncrSession::collectStringTypes(const simple::Stmt *S) {
  using namespace mcpta::simple;
  if (!S)
    return;
  auto Op = [&](const Operand &O) {
    if (O.K == Operand::Kind::StringConst)
      LiveStringTy.emplace(O.StringId, O.Ty);
  };
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const Stmt *C : castStmt<BlockStmt>(S)->Body)
      collectStringTypes(C);
    return;
  case Stmt::Kind::If: {
    const auto *I = castStmt<IfStmt>(S);
    Op(I->Cond);
    collectStringTypes(I->Then);
    collectStringTypes(I->Else);
    return;
  }
  case Stmt::Kind::Loop: {
    const auto *L = castStmt<LoopStmt>(S);
    collectStringTypes(L->Body);
    collectStringTypes(L->Trailer);
    return;
  }
  case Stmt::Kind::Switch: {
    const auto *Sw = castStmt<SwitchStmt>(S);
    Op(Sw->Cond);
    for (const SwitchStmt::Case &C : Sw->Cases)
      for (const Stmt *B : C.Body)
        collectStringTypes(B);
    return;
  }
  case Stmt::Kind::Assign: {
    const auto *A = castStmt<AssignStmt>(S);
    if (A->RK == AssignStmt::RhsKind::Call) {
      for (const Operand &Arg : A->Call.Args)
        Op(Arg);
      return;
    }
    Op(A->A);
    if (A->RK == AssignStmt::RhsKind::Binary)
      Op(A->B);
    return;
  }
  case Stmt::Kind::Call:
    for (const Operand &Arg : castStmt<CallStmt>(S)->Call.Args)
      Op(Arg);
    return;
  case Stmt::Kind::Return: {
    const auto *R = castStmt<ReturnStmt>(S);
    if (R->Value)
      Op(*R->Value);
    return;
  }
  default:
    return;
  }
}

void IncrSession::begin(const simple::Program &P, pta::InvocationGraph &G,
                        pta::LocationTable &L) {
  Prog = &P;
  IG = &G;
  Locs = &L;
  Unit = &P.unit();

  for (const FunctionMeta &F : Baseline.Meta.Functions)
    BaseFns.emplace(F.Name, &F);
  for (const FunctionMeta &F : LiveMeta.Functions)
    LiveFns.emplace(F.Name, &F);

  // Clean = defined on both sides, fingerprint-equal, outside the dirty
  // closure. The id-list length checks guard against the (astronomically
  // unlikely) hash collision that would break positional remapping.
  for (const auto &[Name, LFm] : LiveFns) {
    auto BIt = BaseFns.find(Name);
    if (BIt == BaseFns.end())
      continue;
    const FunctionMeta *BFm = BIt->second;
    if (!LFm->Defined || !BFm->Defined ||
        BFm->Fingerprint != LFm->Fingerprint || Dirty.count(Name))
      continue;
    if (BFm->CallSiteIds.size() != LFm->CallSiteIds.size() ||
        BFm->StmtIds.size() != LFm->StmtIds.size() ||
        BFm->StringIds.size() != LFm->StringIds.size())
      continue;
    Clean.insert(Name);
    auto &CS = CallSiteRemap[Name];
    for (size_t K = 0; K < BFm->CallSiteIds.size(); ++K)
      CS[BFm->CallSiteIds[K]] = LFm->CallSiteIds[K];
    auto &SM = StmtRemap[Name];
    for (size_t K = 0; K < BFm->StmtIds.size(); ++K)
      SM[BFm->StmtIds[K]] = LFm->StmtIds[K];
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
  for (const std::string &Name : Clean) {
    const FunctionMeta *BFm = BaseFns.at(Name), *LFm = LiveFns.at(Name);
    for (size_t K = 0; K < BFm->StringIds.size(); ++K)
      AddPair(BFm->StringIds[K], LFm->StringIds[K]);
  }
  if (Baseline.Meta.GlobalInitFingerprint == LiveMeta.GlobalInitFingerprint &&
      Baseline.Meta.GlobalInitStringIds.size() ==
          LiveMeta.GlobalInitStringIds.size())
    for (size_t K = 0; K < Baseline.Meta.GlobalInitStringIds.size(); ++K)
      AddPair(Baseline.Meta.GlobalInitStringIds[K],
              LiveMeta.GlobalInitStringIds[K]);

  for (const cf::VarDecl *V : P.globals())
    LiveGlobalVars.emplace(V->name(), V);
  for (const cf::FunctionDecl *F : Unit->functions()) {
    auto &Vec = LiveFnVars[F->name()];
    for (const cf::VarDecl *Pv : F->params())
      Vec.push_back(Pv);
    if (const simple::FunctionIR *FIR = P.findFunction(F)) {
      for (const cf::VarDecl *V : FIR->Locals)
        Vec.push_back(V);
      collectStringTypes(FIR->Body);
    }
  }
  collectStringTypes(P.globalInit());

  LiveKeys.emplace(serve::localIndexMap(P));

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

  std::vector<uint8_t> NodeClean(BIG.size(), 0);
  for (size_t I = 0; I < BIG.size(); ++I)
    NodeClean[I] = Clean.count(BIG[I].Function) ? 1 : 0;
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
      DonorsByFn[R.Function].push_back((uint32_t)D);
  }

  for (size_t I = 0; I < Baseline.StmtIn.size(); ++I)
    StmtRowById.emplace(Baseline.StmtIn[I].StmtId, I);

  RkMemo.assign(Baseline.Locations.size(), std::string());
  RkStatus.assign(Baseline.Locations.size(), 0);
  RMemo.assign(Baseline.Locations.size(), nullptr);
  RStatus.assign(Baseline.Locations.size(), 0);
}

//===----------------------------------------------------------------------===//
// Structural keys of baseline records
//===----------------------------------------------------------------------===//

const std::string &IncrSession::rk(uint32_t Bid) {
  static const std::string Empty;
  if (Bid >= Baseline.Locations.size())
    return Empty;
  if (RkStatus[Bid] == 2)
    return RkMemo[Bid];
  if (RkStatus[Bid] == 1)
    return Empty; // SymParent cycle in a corrupt snapshot
  RkStatus[Bid] = 1;

  const serve::LocationRecord &R = Baseline.Locations[Bid];
  std::string K;
  switch ((pta::Entity::Kind)R.EntityKind) {
  case pta::Entity::Kind::Variable:
    if (R.Owner.empty()) {
      K = "v||" + R.RootName + "|-1";
    } else if (Clean.count(R.Owner) && R.LocalIndex >= 0) {
      // Frame locals are only comparable when the frame is clean: the
      // LocalIndex vocabulary of a dirty function may have shifted.
      K = "v|" + R.Owner + "|" + R.RootName + "|" +
          std::to_string(R.LocalIndex);
    }
    break;
  case pta::Entity::Kind::Retval:
    K = "r|" + R.Owner;
    break;
  case pta::Entity::Kind::Function:
    K = "f|" + R.RootName;
    break;
  case pta::Entity::Kind::String: {
    auto It = StringRemap.find(R.StringId);
    if (It != StringRemap.end())
      K = "s|" + std::to_string(It->second);
    break;
  }
  case pta::Entity::Kind::Heap:
    K = "h";
    break;
  case pta::Entity::Kind::Null:
    K = "n";
    break;
  case pta::Entity::Kind::Symbolic:
    if (R.SymParent >= 0) {
      const std::string &PK = rk((uint32_t)R.SymParent);
      if (!PK.empty())
        K = "y|" + R.Owner + "|" + PK + "|";
    }
    break;
  }
  if (!K.empty()) {
    size_t FieldCursor = 0;
    for (uint8_t PK : R.PathKinds) {
      if (PK == 0) {
        if (FieldCursor >= R.FieldNames.size()) {
          K.clear();
          break;
        }
        K += ".f:" + R.FieldNames[FieldCursor++];
      } else if (PK == 1) {
        K += "[0]";
      } else {
        K += "[1..]";
      }
    }
  }
  RkStatus[Bid] = 2;
  RkMemo[Bid] = std::move(K);
  return RkMemo[Bid];
}

std::optional<std::string>
IncrSession::canonBaselineSet(const serve::PackedSet &Ws) {
  std::vector<std::string> Lines;
  Lines.reserve(Ws.size());
  for (uint64_t W : Ws) {
    const std::string &A = rk(serve::tripleSrc(W));
    const std::string &B = rk(serve::tripleDst(W));
    if (A.empty() || B.empty())
      return std::nullopt;
    Lines.push_back(A + ">" + B + (serve::tripleDefinite(W) ? ":D" : ":P"));
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &Ln : Lines) {
    Out += Ln;
    Out += '\n';
  }
  return Out;
}

std::string IncrSession::canonLiveSet(const pta::PointsToSet &S) {
  std::vector<std::string> Lines;
  Lines.reserve(S.size());
  S.forEach(*Locs, [&](const pta::Location *A, const pta::Location *B,
                       pta::Def D) {
    Lines.push_back(LiveKeys->key(A) + ">" + LiveKeys->key(B) +
                    (D == pta::Def::D ? ":D" : ":P"));
  });
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &Ln : Lines) {
    Out += Ln;
    Out += '\n';
  }
  return Out;
}

const std::string *IncrSession::donorCanon(uint32_t D) {
  auto It = DonorCanonMemo.find(D);
  if (It == DonorCanonMemo.end())
    It = DonorCanonMemo.emplace(D, canonBaselineSet(Baseline.IG[D].Input))
             .first;
  return It->second ? &*It->second : nullptr;
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
      auto FIt = LiveFnVars.find(R.Owner);
      if (FIt == LiveFnVars.end() || R.LocalIndex < 0 ||
          (size_t)R.LocalIndex >= FIt->second.size())
        return nullptr;
      const cf::VarDecl *V = FIt->second[R.LocalIndex];
      if (V->name() != R.RootName)
        return nullptr;
      E = Locs->variable(V);
    }
    break;
  case pta::Entity::Kind::Retval: {
    const cf::FunctionDecl *F = Unit->findFunction(R.Owner);
    if (!F)
      return nullptr;
    E = Locs->retval(F);
    break;
  }
  case pta::Entity::Kind::Function: {
    const cf::FunctionDecl *F = Unit->findFunction(R.RootName);
    if (!F)
      return nullptr;
    E = Locs->function(F);
    break;
  }
  case pta::Entity::Kind::String: {
    auto It = StringRemap.find(R.StringId);
    if (It == StringRemap.end())
      return nullptr;
    auto TIt = LiveStringTy.find(It->second);
    if (TIt == LiveStringTy.end())
      return nullptr;
    E = Locs->stringLit(It->second, TIt->second);
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
    const cf::FunctionDecl *Frame = Unit->findFunction(R.Owner);
    if (!Frame)
      return nullptr;
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

bool IncrSession::trySeed(pta::IGNode *Node, const pta::PointsToSet &Input) {
  if (Failed)
    return false;
  const std::string &FnName = Node->function()->name();
  auto DIt = DonorsByFn.find(FnName);
  if (DIt == DonorsByFn.end())
    return false;

  std::string LiveCanon = canonLiveSet(Input);
  std::set<std::string> AncestorFns;
  for (pta::IGNode *A = Node->parent(); A; A = A->parent())
    AncestorFns.insert(A->function()->name());

  for (uint32_t D : DIt->second) {
    const std::string *DC = donorCanon(D);
    if (!DC || *DC != LiveCanon)
      continue;
    // If any function of the donor subtree sits on the live ancestor
    // chain, grafting would splice in recursion the analyzer never
    // detected; skip the donor (a fresh evaluation handles it).
    bool Clash = false;
    for (uint32_t J = D; J < D + Size[D] && !Clash; ++J)
      if (AncestorFns.count(Baseline.IG[J].Function))
        Clash = true;
    if (Clash)
      continue;
    if (!applyGraft(Node, D, Input)) {
      // A partially applied graft cannot be unwound; poison the session
      // so the engine discards this run entirely.
      Failed = true;
      return false;
    }
    ++SeedHits;
    for (uint32_t J = D; J < D + Size[D]; ++J) {
      MemoReuse += Baseline.IG[J].EvalCount;
      RestoredFns.insert(Baseline.IG[J].Function);
    }
    FiredSpans.emplace_back(D, D + Size[D]);
    return true;
  }
  return false;
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

  std::map<uint32_t, pta::IGNode *> LiveOf;
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
      auto PIt = LiveOf.find((uint32_t)R.Parent);
      if (PIt == LiveOf.end())
        return false;
      pta::IGNode *ParentLive = PIt->second;
      auto CSIt = CallSiteRemap.find(BIG[R.Parent].Function);
      if (CSIt == CallSiteRemap.end())
        return false;
      auto MIt = CSIt->second.find(R.CallSiteId);
      if (MIt == CSIt->second.end())
        return false;
      unsigned LiveCS = MIt->second;
      const cf::FunctionDecl *Callee = Unit->findFunction(R.Function);
      if (!Callee)
        return false;
      pta::IGNode *RecLive = nullptr;
      if (R.RecEdge >= 0) {
        auto RIt = LiveOf.find((uint32_t)R.RecEdge);
        if (RIt == LiveOf.end())
          return false;
        RecLive = RIt->second;
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
    LiveOf[J] = N;

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
  if (RestoredFns.empty())
    return true;

  auto InFired = [&](uint32_t I) {
    for (const auto &[B, E] : FiredSpans)
      if (I >= B && I < E)
        return true;
    return false;
  };

  // Live evaluations per function: (kind, canonical input).
  std::map<std::string, std::vector<std::pair<uint8_t, std::string>>> LiveIdx;
  Res.IG->forEachNode([&](const pta::IGNode *N) {
    if (N->EvalCount >= 1 && N->StoredInput &&
        RestoredFns.count(N->function()->name()))
      LiveIdx[N->function()->name()].emplace_back(
          (uint8_t)N->kind(), canonLiveSet(*N->StoredInput));
  });

  const auto &BIG = Baseline.IG;
  for (uint32_t I = 0; I < BIG.size(); ++I) {
    const serve::IGNodeRecord &R = BIG[I];
    if (R.EvalCount == 0 || !RestoredFns.count(R.Function))
      continue;
    if (InFired(I))
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
    std::optional<std::string> C = canonBaselineSet(R.Input);
    if (!C)
      return false;
    auto LIt = LiveIdx.find(R.Function);
    if (LIt == LiveIdx.end())
      return false;
    bool Found = false;
    for (const auto &[K, LC] : LIt->second)
      if (K == R.Kind && LC == *C) {
        Found = true;
        break;
      }
    if (!Found)
      return false;
  }
  return true;
}

bool IncrSession::restore(pta::Analyzer::Result &Res,
                          serve::CarriedRows &Carried) {
  // String-literal ids are program-wide counters that shift under clean
  // functions, and read/write entries name literals by them ("str$N").
  const bool StringsStay =
      std::all_of(StringRemap.begin(), StringRemap.end(),
                  [](const auto &P) { return P.first == P.second; });

  // Every restored row as (live statement id, baseline row index), split
  // by whether its function's rows are carried or built as live sets.
  std::vector<std::pair<uint32_t, uint32_t>> Carry, Materialize;
  for (const std::string &Fn : RestoredFns) {
    auto BIt = BaseFns.find(Fn);
    auto LIt = LiveFns.find(Fn);
    auto SIt = StmtRemap.find(Fn);
    if (BIt == BaseFns.end() || LIt == LiveFns.end() ||
        SIt == StmtRemap.end())
      return false;
    // Read/write entries also name the function's own locals, `$tN`
    // temporaries included, which are program-wide counters too.
    bool CarryFn = StringsStay &&
                   BIt->second->LocalNames == LIt->second->LocalNames &&
                   Baseline.Reads.count(Fn) && Baseline.Writes.count(Fn);
    for (uint32_t LS : LIt->second->StmtIds)
      if (LS < Res.StmtIn.size() && Res.StmtIn[LS])
        CarryFn = false; // a live row: the function's client sets change
    auto &Rows = CarryFn ? Carry : Materialize;
    for (uint32_t BS : BIt->second->StmtIds) {
      auto RowIt = StmtRowById.find(BS);
      if (RowIt == StmtRowById.end())
        continue; // statement never reached in the baseline
      auto MIt = SIt->second.find(BS);
      if (MIt == SIt->second.end() || MIt->second >= Res.StmtIn.size())
        return false;
      Rows.emplace_back(MIt->second, static_cast<uint32_t>(RowIt->second));
    }
    if (CarryFn)
      Carried.BaselineRW.push_back(Fn);
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

  // The live warning log is keyed by FunctionDecl; resolve the baseline's
  // function names against the live program before re-attributing.
  std::map<std::string, const cfront::FunctionDecl *> DeclByName;
  for (const simple::FunctionIR &F : Res.IG->program().functions())
    DeclByName[F.Decl->name()] = F.Decl;

  std::set<std::string> Seen(Res.Warnings.begin(), Res.Warnings.end());
  for (const std::string &Fn : RestoredFns) {
    auto It = Baseline.WarningsByFn.find(Fn);
    if (It == Baseline.WarningsByFn.end())
      continue;
    auto DIt = DeclByName.find(Fn);
    if (DIt == DeclByName.end())
      return false; // a restored function must exist in the live program
    for (const std::string &Msg : It->second) {
      Res.WarningsByFn.add(DIt->second, Msg);
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
    O.Blob = serve::serialize(O.Snapshot);
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
