//===- Serialize.cpp - mcpta-result-v3 binary serialization ------------------===//

#include "serve/Serialize.h"

#include "clients/AliasPairs.h"
#include "clients/ReadWriteSets.h"
#include "ig/InvocationGraph.h"
#include "support/Version.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <map>

using namespace mcpta;
using namespace mcpta::serve;
namespace cf = mcpta::cfront;

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

std::string serve::optionsFingerprint(const pta::Analyzer::Options &Opts) {
  // Deliberately an explicit field list: per-run plumbing that cannot
  // change the result — Telem, Seeder, LiveStmts — is not identity, so
  // cached results are shared across runs that differ only in it.
  const support::AnalysisLimits &L = Opts.Limits;
  std::string FP = "fnptr=";
  FP += std::to_string(static_cast<int>(Opts.FnPtr));
  FP += ";cs=";
  FP += Opts.ContextSensitive ? "1" : "0";
  FP += ";stmtsets=";
  FP += Opts.RecordStmtSets ? "1" : "0";
  FP += ";k=";
  FP += std::to_string(Opts.SymbolicLevelLimit);
  FP += ";loopmax=";
  FP += std::to_string(Opts.MaxLoopIterations);
  FP += ";timeout=";
  FP += std::to_string(L.TimeoutMs);
  FP += ";stmtvisits=";
  FP += std::to_string(L.MaxStmtVisits);
  FP += ";locs=";
  FP += std::to_string(L.MaxLocations);
  FP += ";ignodes=";
  FP += std::to_string(L.MaxIGNodes);
  FP += ";recpasses=";
  FP += std::to_string(L.MaxRecPasses);
  return FP;
}

//===----------------------------------------------------------------------===//
// Capture
//===----------------------------------------------------------------------===//

std::map<const cf::VarDecl *, int32_t>
serve::localIndexMap(const simple::Program &Prog) {
  std::map<const cf::VarDecl *, int32_t> LocalIdx;
  for (const cf::FunctionDecl *F : Prog.unit().functions()) {
    int32_t Idx = 0;
    for (const cf::VarDecl *P : F->params())
      LocalIdx[P] = Idx++;
    if (const simple::FunctionIR *FIR = Prog.findFunction(F))
      for (const cf::VarDecl *V : FIR->Locals)
        LocalIdx[V] = Idx++;
  }
  return LocalIdx;
}

/// Qualified field spelling used in keys and in the serialized
/// FieldNames list: same-named fields of different records must not
/// collide.
static std::string qualifiedFieldName(const cf::FieldDecl *F) {
  return F->parent()->name() + "::" + F->name();
}

const std::string &StructuralKeys::key(const pta::Location *L) {
  const pta::LocationId Id = L->id();
  if (Id < Memo.size() && !Memo[Id].empty())
    return Memo[Id];
  std::string K = rootKey(L->root());
  for (const pta::PathElem &PE : L->path()) {
    switch (PE.K) {
    case pta::PathElem::Kind::Field:
      K += ".f:" + qualifiedFieldName(PE.Field);
      break;
    case pta::PathElem::Kind::Head:
      K += "[0]";
      break;
    case pta::PathElem::Kind::Tail:
      K += "[1..]";
      break;
    }
  }
  if (Memo.size() <= Id)
    Memo.resize(Id + 1);
  return Memo[Id] = std::move(K);
}

std::string StructuralKeys::rootKey(const pta::Entity *E) {
  switch (E->kind()) {
  case pta::Entity::Kind::Variable: {
    int32_t Idx = -1;
    if (E->owner()) {
      auto It = LocalIdx.find(E->var());
      Idx = It == LocalIdx.end() ? -1 : It->second;
    }
    return "v|" + (E->owner() ? E->owner()->name() : std::string()) + "|" +
           E->name() + "|" + std::to_string(Idx);
  }
  case pta::Entity::Kind::Retval:
    return "r|" + E->owner()->name();
  case pta::Entity::Kind::Function:
    return "f|" + E->name();
  case pta::Entity::Kind::String:
    // Name is "str$<id>"; the id is the program string-literal id.
    return "s|" + E->name().substr(4);
  case pta::Entity::Kind::Heap:
    return "h";
  case pta::Entity::Kind::Null:
    return "n";
  case pta::Entity::Kind::Symbolic:
    // Symbolic entities are interned per (frame, parent location), so
    // the parent's key plus the frame identifies them. Trailing '|'
    // keeps "y|f|p" distinct from a path extension of it.
    return "y|" + (E->owner() ? E->owner()->name() : std::string()) + "|" +
           key(E->symbolicParent()) + "|";
  }
  return "?";
}

namespace {

uint32_t parseStringEntityId(const std::string &Name) {
  // "str$<digits>" by construction (LocationTable::stringLit).
  uint32_t Id = 0;
  for (size_t I = 4; I < Name.size(); ++I)
    Id = Id * 10 + static_cast<uint32_t>(Name[I] - '0');
  return Id;
}

} // namespace

ResultSnapshot ResultSnapshot::capture(const simple::Program &Prog,
                                       const pta::Analyzer::Result &Res,
                                       std::string OptionsFingerprint) {
  return capture(Prog, Res, std::move(OptionsFingerprint),
                 incr::computeMeta(Prog));
}

ResultSnapshot ResultSnapshot::capture(const simple::Program &Prog,
                                       const pta::Analyzer::Result &Res,
                                       std::string OptionsFingerprint,
                                       incr::ProgramMeta Meta,
                                       const CarriedRows *Carried) {
  ResultSnapshot S;
  S.OptionsFingerprint = std::move(OptionsFingerprint);
  S.Analyzed = Res.Analyzed ? 1 : 0;
  S.NumStmts = Prog.numStmts();

  const pta::LocationTable &Locs = *Res.Locs;

  // Frame-variable index: position in the owner's params + IR locals
  // list. Serialized so shadowed same-name locals stay distinguishable.
  std::map<const cf::VarDecl *, int32_t> LocalIdx = localIndexMap(Prog);
  StructuralKeys Keys(LocalIdx);

  // The canonical location set: everything some serialized points-to set
  // references, closed over symbolic parents (a symbolic record is only
  // reconstructible when its parent is also present). Locations the run
  // minted but no surviving set mentions are deliberately dropped — their
  // presence would leak creation-order history into the bytes. Every
  // side table below is a vector indexed by live LocationId.
  constexpr uint32_t NotCanon = UINT32_MAX;
  std::vector<uint32_t> CanonId(Locs.numLocations(), NotCanon);
  std::vector<pta::LocationId> Referenced;
  auto addId = [&](pta::LocationId Id) {
    if (CanonId[Id] == NotCanon) {
      CanonId[Id] = 0; // referenced; the canonical id is assigned below
      Referenced.push_back(Id);
    }
  };
  auto addSet = [&](const pta::PointsToSet &PS) {
    const pta::PointsToSet::Entry *E = PS.entries();
    for (size_t I = 0, N = PS.size(); I < N; ++I) {
      addId(E[I].src());
      addId(E[I].dst());
    }
  };
  if (Res.MainOut)
    addSet(*Res.MainOut);
  for (const auto &Set : Res.StmtIn)
    if (Set)
      addSet(*Set);
  // Carried rows reference exactly the live locations their baseline ids
  // resolved to; no need to walk their words.
  if (Carried)
    for (pta::LocationId L : Carried->LiveLoc)
      if (L != CarriedRows::NotUsed)
        addId(L);
  std::vector<const pta::IGNode *> Preorder;
  if (Res.IG)
    Preorder = Res.IG->preorder();
  for (const pta::IGNode *N : Preorder) {
    if (N->StoredInput)
      addSet(*N->StoredInput);
    if (N->StoredOutput)
      addSet(*N->StoredOutput);
  }
  for (size_t I = 0; I < Referenced.size(); ++I) {
    const pta::Entity *E = Locs.byId(Referenced[I])->root();
    if (E->isSymbolic())
      addId(E->symbolicParent()->id());
  }

  // Sort by structural key, each computed once. Keys are pairwise
  // distinct (SerializeTest checks it), so the order cannot depend on
  // the visiting order above.
  std::vector<std::pair<const std::string *, pta::LocationId>> Canon;
  Canon.reserve(Referenced.size());
  for (pta::LocationId Id : Referenced)
    Canon.emplace_back(&Keys.key(Locs.byId(Id)), Id);
  std::sort(Canon.begin(), Canon.end(), [](const auto &A, const auto &B) {
    return *A.first < *B.first;
  });
  for (uint32_t C = 0; C < Canon.size(); ++C)
    CanonId[Canon[C].second] = C;

  S.Locations.reserve(Canon.size());
  for (uint32_t C = 0; C < Canon.size(); ++C) {
    const pta::Location *L = Locs.byId(Canon[C].second);
    const pta::Entity *E = L->root();
    LocationRecord R;
    R.Id = C;
    R.EntityKind = static_cast<uint8_t>(E->kind());
    R.Summary = L->isSummary() ? 1 : 0;
    R.Collapsed = E->isCollapsed() ? 1 : 0;
    R.SymbolicLevel = E->symbolicLevel();
    R.Name = L->str();
    R.Owner = E->owner() ? E->owner()->name() : "";
    R.RootName = E->name();
    if (E->kind() == pta::Entity::Kind::Variable && E->owner()) {
      auto It = LocalIdx.find(E->var());
      R.LocalIndex = It == LocalIdx.end() ? -1 : It->second;
    }
    if (E->isSymbolic())
      R.SymParent = static_cast<int32_t>(CanonId[E->symbolicParent()->id()]);
    if (E->kind() == pta::Entity::Kind::String)
      R.StringId = parseStringEntityId(E->name());
    for (const pta::PathElem &PE : L->path()) {
      R.PathKinds.push_back(static_cast<uint8_t>(PE.K));
      if (PE.K == pta::PathElem::Kind::Field)
        R.FieldNames.push_back(qualifiedFieldName(PE.Field));
    }
    S.Locations.push_back(std::move(R));
  }

  // Every set is emitted by one routine: each packed word's ids go
  // through a map to canonical ids, and the result is re-sorted unless
  // the map is known to keep the words' order. A live entry run is in
  // live-id order, which is creation-order history, so it always sorts.
  auto canonical = [](size_t N, auto WordAt, const uint32_t *Map,
                      bool KeepsOrder) {
    PackedSet Out(N);
    for (size_t I = 0; I < N; ++I) {
      const uint64_t W = WordAt(I);
      Out[I] = (static_cast<uint64_t>(Map[W >> 32]) << 32) |
               (static_cast<uint64_t>(Map[(W & 0xffffffffu) >> 1]) << 1) |
               (W & 1);
    }
    if (!KeepsOrder)
      std::sort(Out.begin(), Out.end());
    return Out;
  };
  auto flatten = [&](const pta::PointsToSet &PS) {
    const pta::PointsToSet::Entry *E = PS.entries();
    return canonical(
        PS.size(), [E](size_t I) { return E[I].Bits; }, CanonId.data(),
        /*KeepsOrder=*/false);
  };

  if (Res.MainOut) {
    S.HasMainOut = 1;
    S.MainOut = flatten(*Res.MainOut);
  }

  // Carried rows are already canonical over the baseline's ids: they go
  // through one baseline-canon -> new-canon vector. When it is the
  // identity on the ids they use, a row is copied as is; while it keeps
  // their order, a row is remapped without sorting.
  std::vector<uint32_t> BaseToCanon;
  bool Identity = true, KeepsOrder = true;
  if (Carried) {
    BaseToCanon.assign(Carried->LiveLoc.size(), 0);
    int64_t Prev = -1;
    for (uint32_t B = 0; B < Carried->LiveLoc.size(); ++B) {
      if (Carried->LiveLoc[B] == CarriedRows::NotUsed)
        continue;
      const uint32_t C = CanonId[Carried->LiveLoc[B]];
      BaseToCanon[B] = C;
      Identity = Identity && C == B;
      KeepsOrder = KeepsOrder && static_cast<int64_t>(C) > Prev;
      Prev = C;
    }
  }
  for (uint32_t Id = 0; Id < Res.StmtIn.size(); ++Id) {
    if (Res.StmtIn[Id]) {
      S.StmtIn.push_back({Id, flatten(*Res.StmtIn[Id])});
    } else if (Carried && Id < Carried->RowAt.size() &&
               Carried->RowAt[Id] >= 0) {
      const PackedSet &Row = Carried->Baseline->StmtIn[Carried->RowAt[Id]].Set;
      S.StmtIn.push_back(
          {Id, Identity ? Row
                        : canonical(
                              Row.size(), [&Row](size_t I) { return Row[I]; },
                              BaseToCanon.data(), KeepsOrder)});
    }
  }

  // Parent and RecEdge become preorder positions. Path holds the current
  // node's ancestors with their positions; a recursion back edge targets
  // an ancestor, so it is found there.
  std::vector<std::pair<const pta::IGNode *, int32_t>> Path;
  S.IG.reserve(Preorder.size());
  for (int32_t I = 0; I < static_cast<int32_t>(Preorder.size()); ++I) {
    const pta::IGNode *N = Preorder[I];
    while (!Path.empty() && Path.back().first != N->parent())
      Path.pop_back();
    IGNodeRecord R;
    R.Function = N->function()->name();
    R.Kind = static_cast<uint8_t>(N->kind());
    R.CallSiteId = N->callSiteId();
    R.Parent = Path.empty() ? -1 : Path.back().second;
    if (const pta::IGNode *Rec = N->recEdge()) {
      auto It = std::find_if(Path.rbegin(), Path.rend(),
                             [&](const auto &P) { return P.first == Rec; });
      assert(It != Path.rend() && "a recursion edge targets an ancestor");
      R.RecEdge = It->second;
    }
    R.EvalCount = N->EvalCount;
    if (N->StoredInput) {
      R.HasInput = 1;
      R.Input = flatten(*N->StoredInput);
    }
    if (N->StoredOutput) {
      R.HasOutput = 1;
      R.Output = flatten(*N->StoredOutput);
    }
    S.IG.push_back(std::move(R));
    Path.emplace_back(N, I);
  }

  for (const support::Degradation &D : Res.Degradations)
    S.Degradations.push_back(
        {static_cast<uint8_t>(D.Kind), D.Context, D.Action});

  // Warnings are a set in v2: an incremental run re-derives them in a
  // different order (and possibly repeatedly), so emission order is
  // trajectory, not result.
  S.Warnings = Res.Warnings;
  std::sort(S.Warnings.begin(), S.Warnings.end());
  S.Warnings.erase(std::unique(S.Warnings.begin(), S.Warnings.end()),
                   S.Warnings.end());
  for (auto &[Fn, Msgs] : Res.WarningsByFn.sortedByName())
    S.WarningsByFn.emplace(Fn, std::move(Msgs));

  S.Meta = std::move(Meta);

  if (Res.MainOut)
    for (const auto &[A, B] : clients::aliasPairs(*Res.MainOut, Locs))
      S.AliasPairs.emplace_back(A, B);

  clients::ReadWriteSets RW = clients::ReadWriteSets::compute(Prog, Res);
  for (const auto &[Fn, Names] : RW.Reads)
    S.Reads.emplace(Fn, std::vector<std::string>(Names.begin(), Names.end()));
  for (const auto &[Fn, Names] : RW.Writes)
    S.Writes.emplace(Fn, std::vector<std::string>(Names.begin(), Names.end()));
  // A function whose rows are all carried has no live set for the client
  // to read; its entries are the baseline's, valid as they stand because
  // its rows are the baseline's and no string-literal id moved.
  if (Carried)
    for (const std::string &Fn : Carried->BaselineRW) {
      S.Reads[Fn] = Carried->Baseline->Reads.at(Fn);
      S.Writes[Fn] = Carried->Baseline->Writes.at(Fn);
    }

  return S;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

int64_t ResultSnapshot::locationIdByName(std::string_view Name) const {
  for (const LocationRecord &L : Locations)
    if (L.Name == Name)
      return L.Id;
  return -1;
}

std::vector<std::pair<std::string, bool>>
ResultSnapshot::pointsToTargets(std::string_view Name, int64_t StmtId) const {
  std::vector<std::pair<std::string, bool>> Out;
  int64_t Id = locationIdByName(Name);
  if (Id < 0)
    return Out;
  const PackedSet *Set = nullptr;
  if (StmtId < 0) {
    if (HasMainOut)
      Set = &MainOut;
  } else {
    for (const StmtSetRecord &R : StmtIn)
      if (R.StmtId == static_cast<uint32_t>(StmtId)) {
        Set = &R.Set;
        break;
      }
  }
  if (!Set)
    return Out;
  // The words are sorted, so the source's pairs form one contiguous run.
  const uint32_t Src = static_cast<uint32_t>(Id);
  for (auto It = std::lower_bound(Set->begin(), Set->end(),
                                  static_cast<uint64_t>(Src) << 32);
       It != Set->end() && tripleSrc(*It) == Src; ++It)
    if (tripleDst(*It) < Locations.size())
      Out.emplace_back(Locations[tripleDst(*It)].Name, tripleDefinite(*It));
  return Out;
}

bool ResultSnapshot::aliased(const std::string &A, const std::string &B) const {
  std::pair<std::string, std::string> P =
      A < B ? std::make_pair(A, B) : std::make_pair(B, A);
  return std::binary_search(AliasPairs.begin(), AliasPairs.end(), P);
}

bool ResultSnapshot::operator==(const ResultSnapshot &O) const {
  return OptionsFingerprint == O.OptionsFingerprint && Analyzed == O.Analyzed &&
         NumStmts == O.NumStmts && Locations == O.Locations &&
         HasMainOut == O.HasMainOut && MainOut == O.MainOut &&
         StmtIn == O.StmtIn && IG == O.IG && Degradations == O.Degradations &&
         Warnings == O.Warnings && WarningsByFn == O.WarningsByFn &&
         Meta == O.Meta && AliasPairs == O.AliasPairs && Reads == O.Reads &&
         Writes == O.Writes;
}

//===----------------------------------------------------------------------===//
// Binary writer
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[4] = {'M', 'C', 'P', 'T'};

/// The number of per-source runs in \p Ws. The v3 set encoding writes
/// id-sorted runs: the words are sorted by (Src, Dst), so each source's
/// pairs are contiguous and its id is written once per run instead of
/// once per pair.
uint32_t numRuns(const PackedSet &Ws) {
  uint32_t Runs = 0;
  for (size_t I = 0; I < Ws.size(); ++I)
    Runs += I == 0 || tripleSrc(Ws[I]) != tripleSrc(Ws[I - 1]);
  return Runs;
}

/// The bytes of a set's encoding: the run count, then per run its
/// source id and pair count, then 5 bytes per (dst, definite) pair.
size_t setBytes(uint32_t Runs, size_t Pairs) {
  return 4 + 8 * static_cast<size_t>(Runs) + 5 * Pairs;
}

/// Appends little-endian fields to a buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  // Whole-word appends: the little-endian bytes are assembled in a
  // local array and appended at once.
  void u32(uint32_t V) {
    const char B[4] = {static_cast<char>(V), static_cast<char>(V >> 8),
                       static_cast<char>(V >> 16), static_cast<char>(V >> 24)};
    Buf.append(B, sizeof(B));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void u64(uint64_t V) {
    u32(static_cast<uint32_t>(V));
    u32(static_cast<uint32_t>(V >> 32));
  }
  void bytes(std::string_view S) { Buf.append(S.data(), S.size()); }
  /// Grows the buffer by the set's exact size and stores every field in
  /// place.
  void set(const PackedSet &Ws) {
    const size_t N = Ws.size();
    const uint32_t Runs = numRuns(Ws);
    const size_t At = Buf.size();
    Buf.resize(At + setBytes(Runs, N));
    char *P = put32(Buf.data() + At, Runs);
    for (size_t I = 0; I < N;) {
      const uint32_t Src = tripleSrc(Ws[I]);
      size_t J = I + 1;
      while (J < N && tripleSrc(Ws[J]) == Src)
        ++J;
      P = put32(P, Src);
      P = put32(P, static_cast<uint32_t>(J - I));
      for (; I < J; ++I) {
        P = put32(P, tripleDst(Ws[I]));
        *P++ = tripleDefinite(Ws[I]) ? 1 : 0;
      }
    }
  }

  void reserve(size_t N) { Buf.reserve(N); }
  size_t size() const { return Buf.size(); }
  std::string take() { return std::move(Buf); }

private:
  static char *put32(char *P, uint32_t V) {
    P[0] = static_cast<char>(V);
    P[1] = static_cast<char>(V >> 8);
    P[2] = static_cast<char>(V >> 16);
    P[3] = static_cast<char>(V >> 24);
    return P + 4;
  }

  std::string Buf;
};

/// Counts the bytes a ByteWriter would append, storing nothing.
class ByteCounter {
public:
  void u8(uint8_t) { ++N; }
  void u32(uint32_t) { N += 4; }
  void i32(int32_t) { N += 4; }
  void u64(uint64_t) { N += 8; }
  void bytes(std::string_view S) { N += S.size(); }
  void set(const PackedSet &Ws) { N += setBytes(numRuns(Ws), Ws.size()); }
  size_t size() const { return N; }

private:
  size_t N = 0;
};

/// Interns strings in first-use order, so the emitted table (and with
/// it the whole blob) is a pure function of the snapshot contents. The
/// pass that fills the table records each call's index; after replay()
/// the same sequence of calls is answered from that record, so a second
/// pass over the snapshot does no lookups.
class StringInterner {
public:
  uint32_t intern(const std::string &S) {
    if (Replaying)
      return Order[Next++];
    auto [It, Inserted] = Index.try_emplace(S, Table.size());
    if (Inserted)
      Table.push_back(S);
    Order.push_back(It->second);
    return It->second;
  }
  void replay() {
    Replaying = true;
    Next = 0;
  }
  const std::vector<std::string> &table() const { return Table; }

private:
  std::map<std::string, uint32_t> Index;
  std::vector<std::string> Table;
  std::vector<uint32_t> Order;
  size_t Next = 0;
  bool Replaying = false;
};

template <class Writer>
void writeStrList(Writer &W, StringInterner &Strings,
                  const std::vector<std::string> &L) {
  W.u32(static_cast<uint32_t>(L.size()));
  for (const std::string &S : L)
    W.u32(Strings.intern(S));
}

template <class Writer>
void writeU32List(Writer &W, const std::vector<uint32_t> &L) {
  W.u32(static_cast<uint32_t>(L.size()));
  for (uint32_t V : L)
    W.u32(V);
}

/// Writes (or counts) everything after the string table. Strings are
/// interned as they are first used, so the table is complete once this
/// has run.
template <class Writer>
void writeBody(Writer &Body, StringInterner &Strings, const ResultSnapshot &S) {
  Body.u8(S.Analyzed);
  Body.u32(S.NumStmts);

  Body.u32(static_cast<uint32_t>(S.Locations.size()));
  for (const LocationRecord &L : S.Locations) {
    Body.u32(L.Id);
    Body.u8(L.EntityKind);
    Body.u8(L.Summary);
    Body.u8(L.Collapsed);
    Body.u32(L.SymbolicLevel);
    Body.u32(Strings.intern(L.Name));
    Body.u32(Strings.intern(L.Owner));
    Body.u32(Strings.intern(L.RootName));
    Body.i32(L.LocalIndex);
    Body.i32(L.SymParent);
    Body.u32(L.StringId);
    Body.u32(static_cast<uint32_t>(L.PathKinds.size()));
    size_t FieldIdx = 0;
    for (uint8_t K : L.PathKinds) {
      Body.u8(K);
      if (K == 0)
        Body.u32(Strings.intern(L.FieldNames[FieldIdx++]));
    }
  }

  Body.u8(S.HasMainOut);
  Body.set(S.MainOut);

  Body.u32(static_cast<uint32_t>(S.StmtIn.size()));
  for (const StmtSetRecord &R : S.StmtIn) {
    Body.u32(R.StmtId);
    Body.set(R.Set);
  }

  Body.u32(static_cast<uint32_t>(S.IG.size()));
  for (const IGNodeRecord &N : S.IG) {
    Body.u32(Strings.intern(N.Function));
    Body.u8(N.Kind);
    Body.u32(N.CallSiteId);
    Body.i32(N.Parent);
    Body.i32(N.RecEdge);
    Body.u32(N.EvalCount);
    Body.u8(N.HasInput);
    Body.u8(N.HasOutput);
    Body.set(N.Input);
    Body.set(N.Output);
  }

  Body.u32(static_cast<uint32_t>(S.Degradations.size()));
  for (const DegradationRecord &D : S.Degradations) {
    Body.u8(D.Kind);
    Body.u32(Strings.intern(D.Context));
    Body.u32(Strings.intern(D.Action));
  }

  writeStrList(Body, Strings, S.Warnings);

  Body.u32(static_cast<uint32_t>(S.WarningsByFn.size()));
  for (const auto &[Fn, Msgs] : S.WarningsByFn) {
    Body.u32(Strings.intern(Fn));
    writeStrList(Body, Strings, Msgs);
  }

  Body.u64(S.Meta.TypesFingerprint);
  Body.u64(S.Meta.GlobalInitFingerprint);
  writeU32List(Body, S.Meta.GlobalInitStringIds);
  Body.u32(static_cast<uint32_t>(S.Meta.Functions.size()));
  for (const incr::FunctionMeta &F : S.Meta.Functions) {
    Body.u32(Strings.intern(F.Name));
    Body.u8(F.Defined);
    Body.u8(F.HasIndirectCalls);
    Body.u64(F.Fingerprint);
    writeStrList(Body, Strings, F.ParamNames);
    writeStrList(Body, Strings, F.LocalNames);
    writeStrList(Body, Strings, F.CalleeNames);
    writeStrList(Body, Strings, F.GlobalRefs);
    writeU32List(Body, F.StmtIds);
    writeU32List(Body, F.CallSiteIds);
    writeU32List(Body, F.StringIds);
  }
  Body.u32(static_cast<uint32_t>(S.Meta.Globals.size()));
  for (const incr::GlobalMeta &G : S.Meta.Globals) {
    Body.u32(Strings.intern(G.Name));
    Body.u64(G.Fingerprint);
  }

  Body.u32(static_cast<uint32_t>(S.AliasPairs.size()));
  for (const auto &[A, B] : S.AliasPairs) {
    Body.u32(Strings.intern(A));
    Body.u32(Strings.intern(B));
  }

  for (const auto *M : {&S.Reads, &S.Writes}) {
    Body.u32(static_cast<uint32_t>(M->size()));
    for (const auto &[Fn, Names] : *M) {
      Body.u32(Strings.intern(Fn));
      Body.u32(static_cast<uint32_t>(Names.size()));
      for (const std::string &N : Names)
        Body.u32(Strings.intern(N));
    }
  }
}

/// The counting pass: the blob's exact size. Counting the body also
/// fills \p Strings, the table the header carries.
size_t countBlob(const ResultSnapshot &S, StringInterner &Strings) {
  ByteCounter Counted;
  writeBody(Counted, Strings, S);
  size_t Bytes = 16 + S.OptionsFingerprint.size() + Counted.size();
  for (const std::string &Str : Strings.table())
    Bytes += 4 + Str.size();
  return Bytes;
}

} // namespace

size_t serve::serializedSize(const ResultSnapshot &S) {
  StringInterner Strings;
  return countBlob(S, Strings);
}

std::string serve::serialize(const ResultSnapshot &S) {
  // The counting pass sizes the blob and fills the string table, so the
  // header, the table and the body are then written once into a buffer
  // of exactly their size. A blob of a large program is tens of MB: one
  // buffer, written once, is both faster and smaller at its peak than a
  // body buffer that grows and is then copied behind the table.
  StringInterner Strings;
  const size_t Bytes = countBlob(S, Strings);

  ByteWriter Out;
  Out.reserve(Bytes);
  Out.bytes(std::string_view(Magic, sizeof(Magic)));
  Out.u32(version::kResultFormatVersion);
  Out.u32(static_cast<uint32_t>(S.OptionsFingerprint.size()));
  Out.bytes(S.OptionsFingerprint);
  Out.u32(static_cast<uint32_t>(Strings.table().size()));
  for (const std::string &Str : Strings.table()) {
    Out.u32(static_cast<uint32_t>(Str.size()));
    Out.bytes(Str);
  }
  Strings.replay();
  writeBody(Out, Strings, S);
  assert(Out.size() == Bytes && "the counting pass sized the blob");
  return Out.take();
}

//===----------------------------------------------------------------------===//
// Binary reader
//===----------------------------------------------------------------------===//

namespace {

/// Bounds-checked cursor over an untrusted blob. Every read either
/// succeeds or latches the error flag; reads after an error are no-ops,
/// so parse code can stay straight-line and check once per section.
class ByteReader {
public:
  explicit ByteReader(std::string_view Blob) : Blob(Blob) {}

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }
  size_t remaining() const { return Blob.size() - Pos; }
  bool atEnd() const { return Pos == Blob.size(); }

  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg + " (at byte " + std::to_string(Pos) + ")";
  }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(Blob[Pos++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Blob[Pos + I]))
           << (8 * I);
    Pos += 4;
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Blob[Pos + I]))
           << (8 * I);
    Pos += 8;
    return V;
  }
  std::string str(uint32_t Len) {
    if (!need(Len))
      return "";
    std::string S(Blob.substr(Pos, Len));
    Pos += Len;
    return S;
  }

  /// Reads an element count and validates it against the bytes left
  /// (each element occupies at least \p MinElemBytes), so corrupt
  /// counts cannot drive a multi-gigabyte allocation.
  uint32_t count(size_t MinElemBytes) {
    uint32_t N = u32();
    if (ok() && MinElemBytes && N > remaining() / MinElemBytes) {
      fail("element count " + std::to_string(N) + " exceeds blob size");
      return 0;
    }
    return N;
  }

private:
  bool need(size_t N) {
    if (!ok())
      return false;
    if (Blob.size() - Pos < N) {
      fail("truncated blob");
      return false;
    }
    return true;
  }

  std::string_view Blob;
  size_t Pos = 0;
  std::string Err;
};

/// Reads a points-to set, encoded as per-source runs (see
/// ByteWriter::set), into packed words. The reader enforces the runs'
/// sortedness, so a round trip is exactly order-preserving, and keeps
/// every destination id below 2^31 so it packs.
bool readSet(ByteReader &R, PackedSet &Out, size_t NumLocs) {
  // Min run size: src id + pair count + one 5-byte pair.
  uint32_t NumRuns = R.count(13);
  int64_t PrevSrc = -1;
  for (uint32_t I = 0; I < NumRuns && R.ok(); ++I) {
    uint32_t Src = R.u32();
    uint32_t N = R.count(5);
    if (R.ok() &&
        (Src >= NumLocs || N == 0 || static_cast<int64_t>(Src) <= PrevSrc)) {
      R.fail("corrupt points-to run header");
      return false;
    }
    PrevSrc = Src;
    int64_t PrevDst = -1;
    for (uint32_t J = 0; J < N && R.ok(); ++J) {
      uint32_t Dst = R.u32();
      uint8_t Definite = R.u8();
      if (R.ok() && (Dst >= NumLocs || Dst > 0x7fffffffu || Definite > 1 ||
                     static_cast<int64_t>(Dst) <= PrevDst)) {
        R.fail("corrupt points-to run");
        return false;
      }
      PrevDst = Dst;
      Out.push_back(packTriple(Src, Dst, Definite != 0));
    }
  }
  return R.ok();
}

/// Resolves a string-table index, failing the reader on overflow.
const std::string &tableRef(ByteReader &R,
                            const std::vector<std::string> &Table,
                            uint32_t Idx) {
  static const std::string Empty;
  if (Idx >= Table.size()) {
    R.fail("string index " + std::to_string(Idx) + " out of range");
    return Empty;
  }
  return Table[Idx];
}

std::vector<std::string> readStrList(ByteReader &R,
                                     const std::vector<std::string> &Strings) {
  std::vector<std::string> Out;
  uint32_t N = R.count(4);
  Out.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I)
    Out.push_back(tableRef(R, Strings, R.u32()));
  return Out;
}

std::vector<uint32_t> readU32List(ByteReader &R) {
  std::vector<uint32_t> Out;
  uint32_t N = R.count(4);
  Out.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I)
    Out.push_back(R.u32());
  return Out;
}

} // namespace

bool serve::deserialize(std::string_view Blob, ResultSnapshot &Out,
                        std::string &Error) {
  Out = ResultSnapshot();
  ByteReader R(Blob);

  std::string Head = R.str(4);
  if (R.ok() && std::memcmp(Head.data(), Magic, 4) != 0)
    R.fail("bad magic (not an mcpta-result blob)");
  uint32_t Version = R.u32();
  if (R.ok() && Version != version::kResultFormatVersion)
    R.fail("unsupported format version " + std::to_string(Version) +
           " (this build reads version " +
           std::to_string(version::kResultFormatVersion) + ")");
  Out.OptionsFingerprint = R.str(R.u32());

  std::vector<std::string> Strings;
  uint32_t NumStrings = R.count(4);
  Strings.reserve(NumStrings);
  for (uint32_t I = 0; I < NumStrings && R.ok(); ++I)
    Strings.push_back(R.str(R.u32()));

  Out.Analyzed = R.u8();
  Out.NumStmts = R.u32();

  uint32_t NumLocs = R.count(35);
  Out.Locations.reserve(NumLocs);
  for (uint32_t I = 0; I < NumLocs && R.ok(); ++I) {
    LocationRecord L;
    L.Id = R.u32();
    L.EntityKind = R.u8();
    L.Summary = R.u8();
    L.Collapsed = R.u8();
    L.SymbolicLevel = R.u32();
    L.Name = tableRef(R, Strings, R.u32());
    L.Owner = tableRef(R, Strings, R.u32());
    L.RootName = tableRef(R, Strings, R.u32());
    L.LocalIndex = R.i32();
    L.SymParent = R.i32();
    L.StringId = R.u32();
    uint32_t NumPath = R.count(1);
    for (uint32_t J = 0; J < NumPath && R.ok(); ++J) {
      uint8_t K = R.u8();
      if (R.ok() && K > 2) {
        R.fail("location path element kind out of range");
        break;
      }
      L.PathKinds.push_back(K);
      if (K == 0)
        L.FieldNames.push_back(tableRef(R, Strings, R.u32()));
    }
    if (R.ok() &&
        (L.EntityKind > 6 || L.LocalIndex < -1 || L.SymParent < -1 ||
         (L.SymParent >= 0 && static_cast<uint32_t>(L.SymParent) >= NumLocs))) {
      // SymParent may exceed the record's own id (canonical order is
      // not topological); only the range is checkable here. The
      // incremental engine's resolver cycle-guards.
      R.fail("corrupt location record");
      break;
    }
    if (R.ok() && L.Id != I)
      R.fail("location ids are not dense");
    Out.Locations.push_back(std::move(L));
  }

  Out.HasMainOut = R.u8();
  if (R.ok() && Out.HasMainOut > 1)
    R.fail("corrupt MainOut flag");
  readSet(R, Out.MainOut, Out.Locations.size());

  uint32_t NumStmtSets = R.count(8);
  Out.StmtIn.reserve(NumStmtSets);
  for (uint32_t I = 0; I < NumStmtSets && R.ok(); ++I) {
    StmtSetRecord Rec;
    Rec.StmtId = R.u32();
    if (R.ok() && Rec.StmtId >= Out.NumStmts) {
      R.fail("statement id out of range");
      break;
    }
    readSet(R, Rec.Set, Out.Locations.size());
    Out.StmtIn.push_back(std::move(Rec));
  }

  uint32_t NumIG = R.count(27);
  Out.IG.reserve(NumIG);
  for (uint32_t I = 0; I < NumIG && R.ok(); ++I) {
    IGNodeRecord N;
    N.Function = tableRef(R, Strings, R.u32());
    N.Kind = R.u8();
    N.CallSiteId = R.u32();
    N.Parent = R.i32();
    N.RecEdge = R.i32();
    N.EvalCount = R.u32();
    N.HasInput = R.u8();
    N.HasOutput = R.u8();
    if (R.ok() && (N.Kind > 2 || N.HasInput > 1 || N.HasOutput > 1 ||
                   N.Parent < -1 || N.RecEdge < -1 ||
                   N.Parent >= static_cast<int32_t>(I) ||
                   N.RecEdge >= static_cast<int32_t>(I))) {
      // Preorder invariant: parents and recursion targets precede their
      // referencing node.
      R.fail("corrupt invocation-graph node record");
      break;
    }
    readSet(R, N.Input, Out.Locations.size());
    readSet(R, N.Output, Out.Locations.size());
    Out.IG.push_back(std::move(N));
  }

  uint32_t NumDeg = R.count(9);
  Out.Degradations.reserve(NumDeg);
  for (uint32_t I = 0; I < NumDeg && R.ok(); ++I) {
    DegradationRecord D;
    D.Kind = R.u8();
    D.Context = tableRef(R, Strings, R.u32());
    D.Action = tableRef(R, Strings, R.u32());
    if (R.ok() && D.Kind >= support::NumLimitKinds) {
      R.fail("degradation kind out of range");
      break;
    }
    Out.Degradations.push_back(std::move(D));
  }

  Out.Warnings = readStrList(R, Strings);

  uint32_t NumWarnFns = R.count(8);
  for (uint32_t I = 0; I < NumWarnFns && R.ok(); ++I) {
    const std::string &Fn = tableRef(R, Strings, R.u32());
    std::vector<std::string> Msgs = readStrList(R, Strings);
    if (R.ok())
      Out.WarningsByFn[Fn] = std::move(Msgs);
  }

  Out.Meta.TypesFingerprint = R.u64();
  Out.Meta.GlobalInitFingerprint = R.u64();
  Out.Meta.GlobalInitStringIds = readU32List(R);
  uint32_t NumFns = R.count(14);
  Out.Meta.Functions.reserve(NumFns);
  for (uint32_t I = 0; I < NumFns && R.ok(); ++I) {
    incr::FunctionMeta F;
    F.Name = tableRef(R, Strings, R.u32());
    F.Defined = R.u8();
    F.HasIndirectCalls = R.u8();
    if (R.ok() && (F.Defined > 1 || F.HasIndirectCalls > 1)) {
      R.fail("corrupt function-meta record");
      break;
    }
    F.Fingerprint = R.u64();
    F.ParamNames = readStrList(R, Strings);
    F.LocalNames = readStrList(R, Strings);
    F.CalleeNames = readStrList(R, Strings);
    F.GlobalRefs = readStrList(R, Strings);
    F.StmtIds = readU32List(R);
    F.CallSiteIds = readU32List(R);
    F.StringIds = readU32List(R);
    Out.Meta.Functions.push_back(std::move(F));
  }
  uint32_t NumGlobals = R.count(12);
  Out.Meta.Globals.reserve(NumGlobals);
  for (uint32_t I = 0; I < NumGlobals && R.ok(); ++I) {
    incr::GlobalMeta G;
    G.Name = tableRef(R, Strings, R.u32());
    G.Fingerprint = R.u64();
    Out.Meta.Globals.push_back(std::move(G));
  }

  uint32_t NumAlias = R.count(8);
  Out.AliasPairs.reserve(NumAlias);
  for (uint32_t I = 0; I < NumAlias && R.ok(); ++I) {
    const std::string &A = tableRef(R, Strings, R.u32());
    const std::string &B = tableRef(R, Strings, R.u32());
    Out.AliasPairs.emplace_back(A, B);
  }

  for (auto *M : {&Out.Reads, &Out.Writes}) {
    uint32_t NumFns = R.count(8);
    for (uint32_t I = 0; I < NumFns && R.ok(); ++I) {
      const std::string &Fn = tableRef(R, Strings, R.u32());
      uint32_t NumNames = R.count(4);
      std::vector<std::string> Names;
      Names.reserve(NumNames);
      for (uint32_t J = 0; J < NumNames && R.ok(); ++J)
        Names.push_back(tableRef(R, Strings, R.u32()));
      if (R.ok())
        (*M)[Fn] = std::move(Names);
    }
  }

  if (R.ok() && !R.atEnd())
    R.fail("trailing bytes after result payload");

  if (!R.ok()) {
    Error = R.error();
    Out = ResultSnapshot();
    return false;
  }
  return true;
}
