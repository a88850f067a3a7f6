//===- DemandTest.cpp - demand-driven query engine -----------------------------===//
//
// The demand engine's contracts (demand/DemandQuery.h, docs/DEMAND.md):
//
//  - Exactness: every alias / points_to answer the engine produces by
//    the pruned "demand" strategy is byte-equal to the exhaustive
//    answer (targets in the same canonical order, same definite/
//    possible classification) — across the whole embedded corpus and
//    randomized wlgen query workloads.
//  - Fallbacks are never silent: a query the engine does not answer by
//    the pruned run carries a recorded FallbackReason, and the fallback
//    answer (from the exhaustive run) is still correct.
//  - The gates fire for exactly the envelope described in the header:
//    no-main, options, fnptr, recursion, stmt-scope, unresolved-name,
//    ambiguous-name, not-main-scope.
//  - Pruning is real: on the incrstress corpus program a query about
//    main's locals visits a small constant number of statements while
//    the exhaustive run visits over a million.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "demand/DemandQuery.h"
#include "driver/Pipeline.h"
#include "support/Telemetry.h"
#include "wlgen/WorkloadGen.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace mcpta;
using namespace mcpta::demand;

namespace {

/// Frontend + engine bundle keeping the Pipeline alive for the
/// engine's lifetime.
struct EngineFixture {
  Pipeline FE;
  std::unique_ptr<DemandEngine> Engine;

  explicit EngineFixture(const std::string &Source, DemandOptions DO = {})
      : FE(Pipeline::frontend(Source)) {
    EXPECT_TRUE(FE.Prog != nullptr) << FE.Diags.dump();
    if (FE.Prog)
      Engine = std::make_unique<DemandEngine>(*FE.Prog, DO);
  }
};

/// Runs one query and checks it against the engine's exhaustive
/// snapshot: demand answers must be byte-equal, fallbacks must carry a
/// reason. Returns the answer for further assertions.
Answer checkEquivalent(DemandEngine &E, const Query &Q,
                       const std::string &Tag) {
  Answer A = E.query(Q);
  const serve::ResultSnapshot &S = E.exhaustiveSnapshot();
  if (!A.Ok) {
    // The only unanswered case with the exhaustive fallback enabled:
    // the location is unknown to the exhaustive result too.
    EXPECT_FALSE(A.Error.empty()) << Tag;
    if (Q.K == Query::Kind::PointsTo)
      EXPECT_LT(S.locationIdByName(Q.Name), 0) << Tag;
    return A;
  }
  if (A.Strategy != "demand") {
    EXPECT_EQ(A.Strategy, "exhaustive") << Tag;
    EXPECT_FALSE(A.FallbackReason.empty())
        << Tag << ": fallback without a recorded reason";
  }
  if (Q.K == Query::Kind::Alias) {
    EXPECT_EQ(A.Aliased, S.aliased(Q.A, Q.B))
        << Tag << ": alias(" << Q.A << ", " << Q.B << ") strategy "
        << A.Strategy;
  } else {
    EXPECT_EQ(A.Targets, S.pointsToTargets(Q.Name, Q.StmtId))
        << Tag << ": points_to(" << Q.Name << ") strategy " << A.Strategy;
  }
  return A;
}

/// Names worth querying in a program: globals first, then main's
/// params and declared locals (simplifier temporaries excluded — their
/// dotted names never resolve), capped so the corpus sweep stays fast.
std::vector<std::string> queryNames(const simple::Program &Prog,
                                    size_t Cap) {
  std::vector<std::string> Names;
  std::set<std::string> Seen;
  auto Add = [&](const std::string &N) {
    if (Names.size() < Cap && !N.empty() && N[0] != '.' &&
        Seen.insert(N).second)
      Names.push_back(N);
  };
  for (const cfront::VarDecl *G : Prog.globals())
    Add(G->name());
  for (const simple::FunctionIR &F : Prog.functions()) {
    if (!F.Decl || F.Decl->name() != "main")
      continue;
    for (const cfront::VarDecl *P : F.Decl->params())
      Add(P->name());
    for (const cfront::VarDecl *L : F.Locals)
      Add(L->name());
  }
  return Names;
}

//===----------------------------------------------------------------------===//
// parseAliasExpr
//===----------------------------------------------------------------------===//

TEST(ParseAliasExprTest, StarsAndIdentifiers) {
  EXPECT_EQ(parseAliasExpr("p"), std::make_pair(0, std::string("p")));
  EXPECT_EQ(parseAliasExpr("*p"), std::make_pair(1, std::string("p")));
  EXPECT_EQ(parseAliasExpr("**q_1"), std::make_pair(2, std::string("q_1")));
  EXPECT_EQ(parseAliasExpr("").first, -1);
  EXPECT_EQ(parseAliasExpr("*").first, -1);
  EXPECT_EQ(parseAliasExpr("p.f").first, -1);
  EXPECT_EQ(parseAliasExpr("p[0]").first, -1);
  EXPECT_EQ(parseAliasExpr("2p").first, -1);
  EXPECT_EQ(parseAliasExpr("* p").first, -1);
}

//===----------------------------------------------------------------------===//
// Gates
//===----------------------------------------------------------------------===//

TEST(DemandGateTest, NoMain) {
  EngineFixture F("int f(void) { return 0; }");
  ASSERT_TRUE(F.Engine);
  EXPECT_EQ(F.Engine->programGate(), "no-main");
  Answer A = F.Engine->query(Query::pointsTo("x"));
  EXPECT_EQ(A.FallbackReason, "no-main");
}

TEST(DemandGateTest, NonDefaultOptionsGate) {
  DemandOptions DO;
  DO.Analyzer.ContextSensitive = false;
  EngineFixture F("int main(void) { int x; int *p; p = &x; return 0; }",
                  DO);
  ASSERT_TRUE(F.Engine);
  EXPECT_EQ(F.Engine->programGate(), "options");
  Answer A = F.Engine->query(Query::pointsTo("p"));
  EXPECT_EQ(A.FallbackReason, "options");
  EXPECT_EQ(A.Strategy, "exhaustive");
  EXPECT_TRUE(A.Ok);
}

TEST(DemandGateTest, FunctionPointerGate) {
  EngineFixture F("int id(int a) { return a; }\n"
                  "int main(void) {\n"
                  "  int (*fp)(int); int r;\n"
                  "  fp = &id; r = (*fp)(1);\n"
                  "  return r;\n"
                  "}\n");
  ASSERT_TRUE(F.Engine);
  EXPECT_EQ(F.Engine->programGate(), "fnptr");
  Answer A = F.Engine->query(Query::pointsTo("fp"));
  EXPECT_EQ(A.FallbackReason, "fnptr");
  checkEquivalent(*F.Engine, Query::pointsTo("fp"), "fnptr-gate");
}

TEST(DemandGateTest, RecursionGate) {
  EngineFixture F("int down(int d) {\n"
                  "  if (d <= 0) return 0;\n"
                  "  return down(d - 1);\n"
                  "}\n"
                  "int main(void) { return down(3); }\n");
  ASSERT_TRUE(F.Engine);
  EXPECT_EQ(F.Engine->programGate(), "recursion");
}

TEST(DemandGateTest, PerQueryGates) {
  EngineFixture F("int g;\n"
                  "int helper(int *a) { int inner; inner = *a; return inner; }\n"
                  "int main(void) {\n"
                  "  int x; int *p; int dup; int r;\n"
                  "  p = &x; dup = 0;\n"
                  "  r = helper(p);\n"
                  "  return r + dup;\n"
                  "}\n"
                  "int other(void) { int dup; dup = 1; return dup; }\n");
  ASSERT_TRUE(F.Engine);
  ASSERT_EQ(F.Engine->programGate(), "");

  // Statement-scoped points_to needs every statement visited.
  EXPECT_EQ(F.Engine->query(Query::pointsTo("p", 3)).FallbackReason,
            "stmt-scope");
  // No such variable.
  EXPECT_EQ(F.Engine->query(Query::pointsTo("nosuch")).FallbackReason,
            "unresolved-name");
  // "dup" names locals in two functions.
  EXPECT_EQ(F.Engine->query(Query::pointsTo("dup")).FallbackReason,
            "ambiguous-name");
  // A function name is not a data variable the slicer can seed.
  EXPECT_EQ(F.Engine->query(Query::pointsTo("helper")).FallbackReason,
            "unresolved-name");
  // Unique, but lives in helper's frame, not main's.
  EXPECT_EQ(F.Engine->query(Query::pointsTo("inner")).FallbackReason,
            "not-main-scope");
  // Bad alias syntax falls back as unresolved.
  EXPECT_EQ(F.Engine->query(Query::alias("p[0]", "x")).FallbackReason,
            "unresolved-name");
  // And the in-envelope query still answers by demand.
  EXPECT_TRUE(F.Engine->query(Query::pointsTo("p")).answeredByDemand());
}

//===----------------------------------------------------------------------===//
// Pruning effectiveness
//===----------------------------------------------------------------------===//

TEST(DemandTest, IncrstressPrunesToAHandfulOfStatements) {
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  ASSERT_NE(CP, nullptr);
  EngineFixture F(CP->Source);
  ASSERT_TRUE(F.Engine);
  ASSERT_EQ(F.Engine->programGate(), "");

  Answer A = checkEquivalent(*F.Engine, Query::pointsTo("p"), "incrstress");
  ASSERT_TRUE(A.answeredByDemand());
  // main's p is never address-taken and no call's mod set reaches it:
  // the slice is a handful of statements, not the million-visit
  // exhaustive run.
  EXPECT_LT(A.VisitedStmts, 100u);
  EXPECT_GT(A.SkippedStmts, 0u);
  EXPECT_LT(A.LiveBasic, A.SliceBasic);

  Answer AA =
      checkEquivalent(*F.Engine, Query::alias("*p", "*q"), "incrstress");
  EXPECT_TRUE(AA.answeredByDemand());
  EXPECT_LT(AA.VisitedStmts, 100u);
}

TEST(DemandTest, AnswersCarryTheirSnapshotsDegradation) {
  // Under a statement-visit budget the pruned run for main's p stays
  // inside it, while the exhaustive run (a million visits) and the
  // pruned run for a global (whose slice is the whole program) do not.
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  ASSERT_NE(CP, nullptr);
  DemandOptions DO;
  DO.Analyzer.Limits.MaxStmtVisits = 1000;
  EngineFixture F(CP->Source, DO);
  ASSERT_TRUE(F.Engine);

  Answer D = F.Engine->query(Query::pointsTo("p"));
  EXPECT_TRUE(D.answeredByDemand());
  EXPECT_FALSE(D.Degraded);

  Answer Scoped = F.Engine->query(Query::pointsTo("p", 0));
  EXPECT_EQ(Scoped.FallbackReason, "stmt-scope");
  EXPECT_TRUE(Scoped.Degraded);

  Answer Global = F.Engine->query(Query::pointsTo("slot0"));
  EXPECT_EQ(Global.FallbackReason, "degraded");
  EXPECT_TRUE(Global.Degraded);

  // answerFrom reports the snapshot it reads, whoever calls it.
  const serve::ResultSnapshot &S = F.Engine->exhaustiveSnapshot();
  EXPECT_TRUE(S.degraded());
  Answer FromSnapshot = answerFrom(Query::alias("*p", "*q"), S);
  EXPECT_TRUE(FromSnapshot.Ok);
  EXPECT_TRUE(FromSnapshot.Degraded);
  EXPECT_TRUE(FromSnapshot.Strategy.empty());

  EngineFixture Clean(CP->Source);
  ASSERT_TRUE(Clean.Engine);
  EXPECT_FALSE(Clean.Engine->query(Query::pointsTo("p", 0)).Degraded);
}

TEST(DemandTest, IncrstressPruningIsPinned) {
  // The liveness pass's exact effect on a fixed query set: a looser
  // pass would show up here long before bench_demand's ratio gate, and
  // a tighter one would be suspect. p and q are main's locals; slot0 is
  // a global, whose conservative mod sets keep the whole slice live.
  struct Pin {
    Query Q;
    uint64_t Visited, Skipped, Live, Slice;
  };
  const Pin Pins[] = {
      {Query::pointsTo("p"), 4, 7, 1, 8},
      {Query::pointsTo("q"), 4, 7, 1, 8},
      {Query::alias("*p", "*q"), 5, 6, 2, 8},
      {Query::alias("p", "*q"), 5, 6, 2, 8},
      {Query::pointsTo("slot0"), 1168447, 0, 8, 8},
  };
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  ASSERT_NE(CP, nullptr);
  EngineFixture F(CP->Source);
  ASSERT_TRUE(F.Engine);
  for (const Pin &P : Pins) {
    std::string Tag = P.Q.K == Query::Kind::Alias ? P.Q.A + "|" + P.Q.B
                                                  : P.Q.Name;
    Answer A = F.Engine->query(P.Q);
    ASSERT_TRUE(A.answeredByDemand()) << Tag;
    EXPECT_EQ(A.VisitedStmts, P.Visited) << Tag;
    EXPECT_EQ(A.SkippedStmts, P.Skipped) << Tag;
    EXPECT_EQ(A.LiveBasic, P.Live) << Tag;
    EXPECT_EQ(A.SliceBasic, P.Slice) << Tag;
  }
  EXPECT_EQ(F.Engine->relevanceStats().Edges, 2132u);
}

TEST(DemandTest, EachQueryRecordsIntoItsOwnSink) {
  // A long-lived engine takes its telemetry sink per query and keeps no
  // pointer to it: a query after the first sink is destroyed records
  // into its own sink only (a kept pointer would write into the dead
  // one, which ASan reports).
  EngineFixture F("int x; int y;\n"
                  "int main(void) { int *p; int *q; p = &x; q = &y; "
                  "return *p + *q; }\n");
  ASSERT_TRUE(F.Engine);
  {
    support::Telemetry First(/*Enabled=*/true);
    Answer A = F.Engine->query(Query::pointsTo("p"), &First);
    ASSERT_TRUE(A.answeredByDemand());
    EXPECT_EQ(First.countersSnapshot()["pta.stmt_visits"], A.VisitedStmts);
  }
  support::Telemetry Second(/*Enabled=*/true);
  Answer B = F.Engine->query(Query::pointsTo("q"), &Second);
  ASSERT_TRUE(B.answeredByDemand());
  EXPECT_GT(B.VisitedStmts, 0u);
  EXPECT_EQ(Second.countersSnapshot()["pta.stmt_visits"], B.VisitedStmts);
  // A fallback's exhaustive run lands in the sink of the query that ran it.
  Answer C = F.Engine->query(Query::pointsTo("p", /*StmtId=*/0), &Second);
  EXPECT_EQ(C.FallbackReason, "stmt-scope");
  EXPECT_EQ(Second.countersSnapshot()["pta.stmt_visits"],
            B.VisitedStmts + 6u);
}

TEST(DemandTest, RepeatedFallbacksRunTheExhaustiveAnalysisOnce) {
  EngineFixture F("int id(int a) { return a; }\n"
                  "int main(void) { int (*fp)(int); int r; "
                  "fp = &id; r = (*fp)(1); return r; }\n");
  ASSERT_TRUE(F.Engine);
  ASSERT_EQ(F.Engine->programGate(), "fnptr");
  support::Telemetry First(/*Enabled=*/true), Second(/*Enabled=*/true);
  Answer A = F.Engine->query(Query::pointsTo("fp"), &First);
  Answer B = F.Engine->query(Query::alias("*fp", "r"), &Second);
  EXPECT_EQ(A.FallbackReason, "fnptr");
  EXPECT_EQ(B.FallbackReason, "fnptr");
  auto C1 = First.countersSnapshot();
  EXPECT_EQ(C1["pta.stmt_visits"], 7u);
  EXPECT_EQ(C1["pta.body_analyses"], 2u);
  // The second fallback answers from the kept exhaustive result.
  for (const auto &[Name, V] : Second.countersSnapshot())
    EXPECT_NE(Name.rfind("pta.", 0), 0u) << Name << " = " << V;
}

//===----------------------------------------------------------------------===//
// Corpus-wide equivalence
//===----------------------------------------------------------------------===//

TEST(DemandTest, CorpusEquivalence) {
  size_t DemandAnswered = 0, Fallbacks = 0;
  for (const corpus::CorpusProgram &CP : corpus::corpus()) {
    EngineFixture F(CP.Source);
    ASSERT_TRUE(F.Engine) << CP.Name;
    std::vector<std::string> Names = queryNames(*F.FE.Prog, 8);
    for (const std::string &N : Names) {
      Answer A = checkEquivalent(*F.Engine, Query::pointsTo(N), CP.Name);
      (A.answeredByDemand() ? DemandAnswered : Fallbacks) += 1;
    }
    // Alias pairs over the first few names with 0/1-star shapes.
    size_t PairBudget = 6;
    for (size_t I = 0; I < Names.size() && PairBudget; ++I)
      for (size_t J = I + 1; J < Names.size() && PairBudget; ++J) {
        checkEquivalent(*F.Engine, Query::alias(Names[I], Names[J]),
                        CP.Name);
        checkEquivalent(*F.Engine,
                        Query::alias("*" + Names[I], "*" + Names[J]),
                        CP.Name);
        --PairBudget;
      }
  }
  // The sweep must actually exercise both paths.
  EXPECT_GT(DemandAnswered, 0u);
  EXPECT_GT(Fallbacks, 0u);
}

//===----------------------------------------------------------------------===//
// Randomized wlgen equivalence
//===----------------------------------------------------------------------===//

TEST(DemandTest, QueryWorkloadEquivalence) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    wlgen::QueryWorkloadConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumQueries = 16;
    wlgen::QueryWorkload W = wlgen::queryWorkload(Cfg);
    EngineFixture F(W.Source);
    ASSERT_TRUE(F.Engine) << "seed " << Seed;
    size_t Hot = 0;
    for (const wlgen::QuerySpec &QS : W.Queries) {
      Query Q = QS.K == wlgen::QuerySpec::Kind::PointsTo
                    ? Query::pointsTo(QS.Name)
                    : Query::alias(QS.A, QS.B);
      Answer A =
          checkEquivalent(*F.Engine, Q, "seed " + std::to_string(Seed));
      if (A.answeredByDemand())
        ++Hot;
    }
    EXPECT_GT(Hot, 0u) << "seed " << Seed
                       << ": no query answered by demand";
  }
}

TEST(DemandTest, QueryWorkloadFnptrAndRecursionFallBack) {
  for (int Mode = 0; Mode < 2; ++Mode) {
    wlgen::QueryWorkloadConfig Cfg;
    Cfg.Seed = 7;
    Cfg.NumQueries = 8;
    Cfg.UseFunctionPointers = Mode == 0;
    Cfg.UseRecursion = Mode == 1;
    wlgen::QueryWorkload W = wlgen::queryWorkload(Cfg);
    EngineFixture F(W.Source);
    ASSERT_TRUE(F.Engine);
    // Whole-program gate: every non-trivial query falls back with the
    // program's reason, and equivalence still holds (the fallback IS
    // the exhaustive answer).
    EXPECT_TRUE(F.Engine->programGate() == "fnptr" ||
                F.Engine->programGate() == "recursion")
        << F.Engine->programGate();
    for (const wlgen::QuerySpec &QS : W.Queries) {
      Query Q = QS.K == wlgen::QuerySpec::Kind::PointsTo
                    ? Query::pointsTo(QS.Name)
                    : Query::alias(QS.A, QS.B);
      Answer A = checkEquivalent(*F.Engine, Q, "gated workload");
      if (!A.answeredByDemand() && A.Ok)
        EXPECT_FALSE(A.FallbackReason.empty());
    }
  }
}

//===----------------------------------------------------------------------===//
// Analyzer LiveStmts plumbing
//===----------------------------------------------------------------------===//

TEST(AnalyzerLiveStmtsTest, AllLiveMatchesUnfiltered) {
  const char *Src = "int g; int *gp;\n"
                    "int main(void) {\n"
                    "  int x; int *p; int **q;\n"
                    "  p = &x; q = &p; gp = &g;\n"
                    "  return 0;\n"
                    "}\n";
  Pipeline Full = Pipeline::analyzeSource(Src);
  ASSERT_TRUE(Full.ok());

  Pipeline FE = Pipeline::frontend(Src);
  ASSERT_TRUE(FE.Prog != nullptr);
  pta::Analyzer::Options Opts;
  std::vector<uint8_t> AllLive(1024, 1);
  Opts.LiveStmts = &AllLive;
  pta::Analyzer::Result R = pta::Analyzer::run(*FE.Prog, Opts);
  ASSERT_TRUE(R.Analyzed);

  serve::ResultSnapshot SFull =
      serve::ResultSnapshot::capture(*Full.Prog, Full.Analysis, "");
  serve::ResultSnapshot SLive =
      serve::ResultSnapshot::capture(*FE.Prog, R, "");
  for (const char *N : {"p", "q", "gp"})
    EXPECT_EQ(SLive.pointsToTargets(N), SFull.pointsToTargets(N)) << N;
}

TEST(AnalyzerLiveStmtsTest, AllDeadSkipsEveryStatement) {
  Pipeline FE = Pipeline::frontend(
      "int main(void) { int x; int *p; p = &x; return 0; }");
  ASSERT_TRUE(FE.Prog != nullptr);
  support::Telemetry Telem(/*Enabled=*/true);
  pta::Analyzer::Options Opts;
  Opts.Telem = &Telem;
  std::vector<uint8_t> AllDead(1024, 0);
  Opts.LiveStmts = &AllDead;
  pta::Analyzer::Result R = pta::Analyzer::run(*FE.Prog, Opts);
  ASSERT_TRUE(R.Analyzed);
  auto Counters = Telem.countersSnapshot();
  EXPECT_EQ(Counters["pta.stmt_visits"], 0u);
  EXPECT_GT(Counters["pta.stmt_skips"], 0u);
}

} // namespace
