//===- DemandQuery.cpp - Demand-driven points-to queries ------------------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "demand/DemandQuery.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>

namespace mcpta {
namespace demand {

using namespace mcpta::simple;
namespace cf = mcpta::cfront;

/// Alias-pair expressions carry at most this many dereferences
/// (clients::aliasPairs MaxDerefs default, which is what capture()
/// uses); any deeper expression is absent from every pair table.
static constexpr int MaxAliasDerefs = 2;

std::pair<int, std::string> parseAliasExpr(const std::string &Expr) {
  size_t I = 0;
  while (I < Expr.size() && Expr[I] == '*')
    ++I;
  std::string Base = Expr.substr(I);
  if (Base.empty() ||
      !(std::isalpha(static_cast<unsigned char>(Base[0])) || Base[0] == '_'))
    return {-1, ""};
  for (char C : Base)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_'))
      return {-1, ""};
  return {static_cast<int>(I), Base};
}

namespace {

/// True when a direct-call cycle is reachable from main. The pruned
/// analyzer still handles recursion soundly, but the pending-list
/// fixpoint's *trajectory* (which approximations it takes, in which
/// order) is a whole-graph property, so the demand engine refuses to
/// claim byte-equality and falls back.
bool hasRecursionFromMain(const Program &Prog, const FunctionIR *Main) {
  if (!Main)
    return false;
  std::map<const cf::FunctionDecl *, std::vector<const cf::FunctionDecl *>>
      Callees;
  for (const FunctionIR &F : Prog.functions()) {
    if (!F.Decl)
      continue;
    std::vector<const cf::FunctionDecl *> &Out = Callees[F.Decl];
    forEachStmt(F.Body, [&](const Stmt *S) {
      if (const CallInfo *CI = callOf(S))
        if (CI->Callee && Prog.findFunction(CI->Callee))
          Out.push_back(CI->Callee);
    });
  }
  // Iterative DFS; gray = on the current path.
  enum : uint8_t { White, Gray, Black };
  std::map<const cf::FunctionDecl *, uint8_t> Color;
  struct Frame {
    const cf::FunctionDecl *Fn;
    size_t Next = 0;
  };
  std::vector<Frame> Stack{{Main->Decl, 0}};
  Color[Main->Decl] = Gray;
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    const std::vector<const cf::FunctionDecl *> &Out = Callees[F.Fn];
    if (F.Next >= Out.size()) {
      Color[F.Fn] = Black;
      Stack.pop_back();
      continue;
    }
    const cf::FunctionDecl *Callee = Out[F.Next++];
    uint8_t &C = Color[Callee];
    if (C == Gray)
      return true;
    if (C == White) {
      C = Gray;
      Stack.push_back({Callee, 0});
    }
  }
  return false;
}

} // namespace

DemandEngine::DemandEngine(const simple::Program &Prog, DemandOptions Opts,
                           const incr::ProgramMeta *Meta)
    : Prog(Prog), Opts(std::move(Opts)), Meta(Meta) {
  Main = findMain(Prog);

  // Name index for resolution gates: every variable the program
  // declares, keyed by display name.
  auto Index = [this](const cf::VarDecl *V) {
    if (!V)
      return;
    std::vector<const cf::VarDecl *> &L = VarsByName[V->name()];
    if (std::find(L.begin(), L.end(), V) == L.end())
      L.push_back(V);
  };
  for (const cf::VarDecl *G : Prog.globals())
    Index(G);
  for (const FunctionIR &F : Prog.functions()) {
    if (F.Decl) {
      FunctionNames.insert(F.Decl->name());
      for (const cf::VarDecl *P : F.Decl->params())
        Index(P);
    }
    for (const cf::VarDecl *L : F.Locals)
      Index(L);
  }

  // Whole-program gates, most fundamental first.
  if (!Main) {
    ProgramGate = "no-main";
    return;
  }
  if (!this->Opts.Analyzer.ContextSensitive ||
      this->Opts.Analyzer.FnPtr != pta::FnPtrMode::Precise ||
      this->Opts.Analyzer.Seeder) {
    ProgramGate = "options";
    return;
  }
  bool AnyIndirect = false;
  for (const FunctionIR &F : Prog.functions())
    forEachStmt(F.Body, [&](const Stmt *S) {
      if (const CallInfo *CI = callOf(S))
        if (CI->isIndirect())
          AnyIndirect = true;
    });
  if (AnyIndirect) {
    ProgramGate = "fnptr";
    return;
  }
  if (hasRecursionFromMain(Prog, Main))
    ProgramGate = "recursion";
}

DemandEngine::~DemandEngine() = default;

const Relevance &DemandEngine::relevance() {
  if (!Rel)
    Rel = std::make_unique<Relevance>(Prog);
  return *Rel;
}

Relevance::Stats DemandEngine::relevanceStats() const {
  return Rel ? Rel->stats() : Relevance::Stats{};
}

const incr::ProgramMeta &DemandEngine::meta() {
  if (!Meta) {
    OwnMeta = std::make_unique<incr::ProgramMeta>(incr::computeMeta(Prog));
    Meta = OwnMeta.get();
  }
  return *Meta;
}

const serve::ResultSnapshot &
DemandEngine::exhaustive(support::Telemetry *Telem) {
  if (!Exh) {
    pta::Analyzer::Options AO = Opts.Analyzer;
    AO.Telem = Telem;
    pta::Analyzer::Result Res = pta::Analyzer::run(Prog, AO);
    Exh = std::make_shared<const serve::ResultSnapshot>(
        serve::ResultSnapshot::capture(Prog, Res,
                                       serve::optionsFingerprint(AO), meta()));
  }
  return *Exh;
}

void DemandEngine::offerExhaustive(
    std::shared_ptr<const serve::ResultSnapshot> S) {
  if (!Exh && S &&
      S->OptionsFingerprint == serve::optionsFingerprint(Opts.Analyzer))
    Exh = std::move(S);
}

int DemandEngine::resolveRoot(const std::string &Name, std::string &GateOut) {
  auto It = VarsByName.find(Name);
  if (It == VarsByName.end() || It->second.empty()) {
    GateOut = "unresolved-name";
    return -1;
  }
  if (It->second.size() > 1 || FunctionNames.count(Name)) {
    // Several variables (or a variable and a function location) share
    // the display name: snapshot lookups resolve by name alone, so the
    // demand and exhaustive tables could pick different locations.
    GateOut = "ambiguous-name";
    return -1;
  }
  const cf::VarDecl *V = It->second.front();
  if (V->storage() != cf::VarDecl::Storage::Global) {
    bool InMain = false;
    if (Main) {
      const std::vector<cf::VarDecl *> &Ps = Main->Decl->params();
      InMain = std::find(Ps.begin(), Ps.end(), V) != Ps.end() ||
               std::find(Main->Locals.begin(), Main->Locals.end(), V) !=
                   Main->Locals.end();
    }
    if (!InMain) {
      GateOut = "not-main-scope";
      return -1;
    }
  }
  int Root = relevance().rootOf(V);
  if (Root < 0)
    GateOut = "unresolved-name";
  return Root;
}

Answer answerFrom(const Query &Q, const serve::ResultSnapshot &S) {
  Answer A;
  A.Degraded = S.degraded();
  if (Q.K == Query::Kind::Alias) {
    A.Aliased = S.aliased(Q.A, Q.B);
    A.Ok = true;
  } else if (S.locationIdByName(Q.Name) < 0) {
    A.Error = "unknown location '" + Q.Name + "'";
  } else {
    A.Targets = S.pointsToTargets(Q.Name, Q.StmtId);
    A.Ok = true;
  }
  return A;
}

Answer DemandEngine::fallback(const Query &Q, const std::string &Reason,
                              support::Telemetry *Telem) {
  Answer A = answerFrom(Q, exhaustive(Telem));
  A.Strategy = "exhaustive";
  A.FallbackReason = Reason;
  return A;
}

Answer DemandEngine::query(const Query &Q, support::Telemetry *Telem) {
  auto Fallback = [&](const std::string &Reason) {
    return fallback(Q, Reason, Telem);
  };
  // Statement-scoped queries need the per-statement set recording the
  // pruned run turns off.
  if (Q.K == Query::Kind::PointsTo && Q.StmtId >= 0)
    return Fallback("stmt-scope");
  if (!ProgramGate.empty())
    return Fallback(ProgramGate);

  std::vector<int> Seeds;
  std::string Gate;
  if (Q.K == Query::Kind::Alias) {
    auto [StarsA, BaseA] = parseAliasExpr(Q.A);
    auto [StarsB, BaseB] = parseAliasExpr(Q.B);
    if (StarsA < 0 || StarsB < 0)
      return Fallback("unresolved-name");
    // Trivial non-aliases, exact by construction of the pair table:
    // pairs are between *distinct* expression strings, expressions
    // never exceed MaxAliasDerefs stars, and a plain name appears only
    // in its own location's expression list.
    if (Q.A == Q.B || StarsA > MaxAliasDerefs || StarsB > MaxAliasDerefs ||
        (StarsA == 0 && StarsB == 0)) {
      Answer A;
      A.Ok = true;
      A.Strategy = "demand";
      A.Aliased = false;
      return A;
    }
    for (const auto &[Stars, Base] : {std::pair<int, std::string>(StarsA, BaseA),
                                      std::pair<int, std::string>(StarsB, BaseB)}) {
      int Root = resolveRoot(Base, Gate);
      if (Root < 0)
        return Fallback(Gate);
      Seeds.push_back(Root);
      if (Stars >= 2) {
        // A k-star expression's pair membership consults the triples of
        // the (k-1) intermediate targets too; the flow-insensitive pts
        // set over-approximates every exact intermediate.
        for (int T : relevance().pts(Root))
          Seeds.push_back(T);
      }
    }
  } else {
    auto [Stars, Base] = parseAliasExpr(Q.Name);
    if (Stars != 0)
      return Fallback("unresolved-name");
    int Root = resolveRoot(Base, Gate);
    if (Root < 0)
      return Fallback(Gate);
    Seeds.push_back(Root);
  }

  const Relevance &R = relevance();
  Relevance::Liveness LV = R.liveness(Seeds);

  pta::Analyzer::Options AO = Opts.Analyzer;
  AO.RecordStmtSets = false;
  AO.Seeder = nullptr;
  AO.LiveStmts = &LV.LiveStmts;
  // Always-on child telemetry: the visited/skipped statement counts are
  // the bench's pruning evidence. Folded into the caller's sink (when
  // any) so serve observability sees the pruned run's pta.* traffic.
  support::Telemetry RunTelem(true);
  AO.Telem = &RunTelem;
  pta::Analyzer::Result Res = pta::Analyzer::run(Prog, AO);

  std::map<std::string, uint64_t, std::less<>> C = RunTelem.countersSnapshot();
  if (Telem)
    Telem->mergeFrom(RunTelem);
  // The pruned run's statistics ride on whichever answer it leads to.
  auto WithRunStats = [&](Answer A) {
    A.VisitedStmts = C.count("pta.stmt_visits") ? C["pta.stmt_visits"] : 0;
    A.SkippedStmts = C.count("pta.stmt_skips") ? C["pta.stmt_skips"] : 0;
    A.SliceBasic = LV.SliceBasic;
    A.LiveBasic = LV.LiveBasic;
    return A;
  };

  if (!Res.Analyzed || Res.degraded())
    return WithRunStats(Fallback("degraded"));

  serve::ResultSnapshot Snap = serve::ResultSnapshot::capture(
      Prog, Res, serve::optionsFingerprint(AO), meta());
  if (Q.K == Query::Kind::PointsTo && Snap.locationIdByName(Q.Name) < 0) {
    // The exhaustive location table can still mention the name (via
    // statement sets or invocation-graph records the pruned run does
    // not produce); let the fallback decide between an answer and the
    // unknown-location error.
    return WithRunStats(Fallback("unmentioned"));
  }
  Answer A = answerFrom(Q, Snap);
  A.Strategy = "demand";
  return WithRunStats(std::move(A));
}

} // namespace demand
} // namespace mcpta
