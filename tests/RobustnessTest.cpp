//===- RobustnessTest.cpp - frontend fuzz-ish robustness -----------------------===//
//
// The pipeline must never crash on garbage: random token soup, truncated
// programs, deeply nested expressions. Acceptance is fine, rejection is
// fine, crashing or hanging is not.
//
// The second half covers resource governance (docs/ROBUSTNESS.md):
// wlgen's pathological programs under tight budgets must terminate,
// report their degradations, and keep the degraded result sound —
// a superset of the ungoverned precise pairs and a subset of the
// Andersen flow-insensitive over-approximation, both compared at
// root-entity granularity.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "baselines/Andersen.h"
#include "wlgen/WorkloadGen.h"

#include <chrono>
#include <set>

using namespace mcpta;
using testutil::rootPairs;

namespace {

/// Deterministic LCG for reproducible "fuzzing".
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 88172645463325252ULL + 1) {}
  unsigned next(unsigned N) {
    S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    return (S >> 17) % N;
  }
};

TEST(RobustnessTest, RandomTokenSoupNeverCrashes) {
  static const char *const Tokens[] = {
      "int",  "char",   "*",      "&",    "(",      ")",     "{",
      "}",    "[",      "]",      ";",    ",",      "=",     "+",
      "-",    "if",     "else",   "while", "for",   "return", "x",
      "y",    "f",      "struct", "42",   "\"s\"",  "->",    ".",
      "==",   "NULL",   "void",   "do",   "switch", "case",  ":",
  };
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Rng R(Seed);
    std::string Src;
    unsigned Len = 10 + R.next(120);
    for (unsigned I = 0; I < Len; ++I) {
      Src += Tokens[R.next(sizeof(Tokens) / sizeof(Tokens[0]))];
      Src += " ";
    }
    // Must terminate without crashing; diagnostics expected.
    Pipeline P = Pipeline::analyzeSource(Src);
    (void)P;
  }
}

TEST(RobustnessTest, TruncatedProgramsNeverCrash) {
  const std::string Full = R"(
    struct N { struct N *next; int v; };
    int walk(struct N *n) {
      int s; s = 0;
      while (n != NULL) { s = s + n->v; n = n->next; }
      return s;
    }
    int main(void) { struct N a; a.v = 1; a.next = NULL; return walk(&a); })";
  for (size_t Len = 0; Len < Full.size(); Len += 7) {
    Pipeline P = Pipeline::analyzeSource(Full.substr(0, Len));
    (void)P;
  }
}

TEST(RobustnessTest, DeeplyNestedExpressions) {
  std::string Src = "int main(void) { int x; x = ";
  for (int I = 0; I < 200; ++I)
    Src += "(1 + ";
  Src += "0";
  for (int I = 0; I < 200; ++I)
    Src += ")";
  Src += "; return x; }";
  Pipeline P = Pipeline::analyzeSource(Src);
  EXPECT_FALSE(P.Diags.hasErrors());
}

TEST(RobustnessTest, DeeplyNestedBlocks) {
  std::string Src = "int main(void) { int x; x = 0; ";
  for (int I = 0; I < 150; ++I)
    Src += "{ x = x + 1; ";
  for (int I = 0; I < 150; ++I)
    Src += "}";
  Src += " return x; }";
  Pipeline P = Pipeline::analyzeSource(Src);
  EXPECT_FALSE(P.Diags.hasErrors());
}

TEST(RobustnessTest, ManyVariablesAndPairs) {
  // A wide, flat program: 200 pointers to 200 targets.
  std::string Src = "int main(void) {\n";
  for (int I = 0; I < 200; ++I)
    Src += "  int x" + std::to_string(I) + "; int *p" +
           std::to_string(I) + ";\n";
  for (int I = 0; I < 200; ++I)
    Src += "  p" + std::to_string(I) + " = &x" + std::to_string(I) +
           ";\n";
  Src += "  return *p0;\n}\n";
  Pipeline P = Pipeline::analyzeSource(Src);
  EXPECT_FALSE(P.Diags.hasErrors());
  EXPECT_TRUE(P.Analysis.Analyzed);
  EXPECT_TRUE(testutil::mainHasPair(P, "p199", "x199", 'D'));
}

TEST(RobustnessTest, LongCallChain) {
  // f0 -> f1 -> ... -> f60 threading a pointer all the way down.
  std::string Src = "int g;\n";
  Src += "void f60(int **pp) { *pp = &g; }\n";
  for (int I = 59; I >= 0; --I)
    Src += "void f" + std::to_string(I) + "(int **pp) { f" +
           std::to_string(I + 1) + "(pp); }\n";
  Src += "int main(void) { int *p; f0(&p); return *p; }\n";
  Pipeline P = Pipeline::analyzeSource(Src);
  EXPECT_FALSE(P.Diags.hasErrors());
  EXPECT_TRUE(testutil::mainHasPair(P, "p", "g", 'D'))
      << testutil::mainOut(P);
}

TEST(RobustnessTest, UnterminatedConstructs) {
  for (const char *Src : {
           "int main(void) { \"unterminated",
           "int main(void) { 'x",
           "/* never closed",
           "int a[",
           "struct S {",
           "int f(",
           "int main(void) { if (",
       }) {
    Pipeline P = Pipeline::analyzeSource(Src);
    EXPECT_TRUE(P.Diags.hasErrors()) << Src;
  }
}

TEST(RobustnessTest, ConflictingRedeclarationsAreNotFatal) {
  // parseFunctionDefinition used to assert when the defined name did
  // not resolve to a FunctionDecl. Whatever each shape resolves to now
  // (silent rebind or diagnostic), none of them may crash or hang.
  for (const char *Src : {
           "int x; int x(void) { return 0; } int main(void) { return x; }",
           "int x(void) { return 0; } int x; int main(void) { return 0; }",
           "int f(void); int f; int f(void) { return 0; } "
           "int main(void) { return f(); }",
       }) {
    Pipeline P = Pipeline::analyzeSource(Src);
    if (!P.Diags.hasErrors())
      EXPECT_TRUE(P.Analysis.Analyzed) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Resource governance: pathological programs under tight budgets
//===----------------------------------------------------------------------===//

std::string stressProgram() { return wlgen::pathologicalSource(5, 3, 4, 8); }

/// Runs the three-way soundness sandwich for one governed options set:
/// degraded result must exist, be flagged, contain every precise root
/// pair, and stay inside the Andersen over-approximation.
void expectDegradedSoundly(const std::string &Src,
                           const pta::Analyzer::Options &Governed) {
  Pipeline Precise = Pipeline::analyzeSource(Src);
  ASSERT_TRUE(Precise.ok()) << Precise.Diags.dump();
  ASSERT_FALSE(Precise.degraded());

  Pipeline Degraded = Pipeline::analyzeSource(Src, Governed);
  ASSERT_TRUE(Degraded.Analysis.Analyzed);
  EXPECT_FALSE(Degraded.Diags.hasErrors()) << Degraded.Diags.dump();
  ASSERT_TRUE(Degraded.degraded());
  for (const support::Degradation &D : Degraded.Analysis.Degradations) {
    EXPECT_FALSE(D.Context.empty());
    EXPECT_FALSE(D.Action.empty());
  }

  // Sound over-approximation: nothing the precise run knows is lost...
  std::set<std::string> P = rootPairs(Precise), D = rootPairs(Degraded);
  for (const std::string &Pair : P)
    EXPECT_TRUE(D.count(Pair)) << "degraded run lost pair: " << Pair;

  // ...and nothing outside the flow-insensitive Andersen solution is
  // invented (both abstractions skip null/retval/symbolic roots).
  baselines::AndersenResult A =
      baselines::AndersenAnalysis::run(*Degraded.Prog);
  for (const std::string &Pair : D) {
    size_t Sep = Pair.find(" -> ");
    ASSERT_NE(Sep, std::string::npos);
    const std::string Src2 = Pair.substr(0, Sep);
    const std::string Dst = Pair.substr(Sep + 4);
    EXPECT_TRUE(A.pointsTo(Src2).count(Dst))
        << "degraded pair outside Andersen: " << Pair;
  }
}

TEST(RobustnessTest, StmtBudgetDegradesSoundly) {
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxStmtVisits = 2000;
  expectDegradedSoundly(stressProgram(), Opts);
}

TEST(RobustnessTest, IGNodeCapDegradesSoundly) {
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxIGNodes = 40;
  expectDegradedSoundly(stressProgram(), Opts);
}

TEST(RobustnessTest, LocationCapDegradesSoundly) {
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxLocations = 60;
  expectDegradedSoundly(stressProgram(), Opts);
}

TEST(RobustnessTest, RecPassCapTerminatesAndReports) {
  // Cutting a recursion fixed point short can drop pairs the full
  // generalization would have found, so only termination, flagging,
  // and crash-freedom are promised here (see docs/ROBUSTNESS.md).
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxRecPasses = 1;
  Pipeline P = Pipeline::analyzeSource(stressProgram(), Opts);
  ASSERT_TRUE(P.Analysis.Analyzed);
  EXPECT_TRUE(P.degraded());
  bool SawRecCut = false;
  for (const support::Degradation &D : P.Analysis.Degradations)
    SawRecCut |= D.Kind == support::LimitKind::RecPasses;
  EXPECT_TRUE(SawRecCut);
}

TEST(RobustnessTest, DeadlineBoundsWallClock) {
  // Depth 8 is ~3^8 invocation-graph contexts: tens of seconds
  // ungoverned. Under a 100ms deadline the run must finish fast (soft
  // trip switches to merged summaries; the 4x hard deadline cuts any
  // in-flight fixed point) and report what happened.
  const std::string Src = wlgen::pathologicalSource(8);
  pta::Analyzer::Options Opts;
  Opts.Limits.TimeoutMs = 100;
  auto T0 = std::chrono::steady_clock::now();
  Pipeline P = Pipeline::analyzeSource(Src, Opts);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ASSERT_TRUE(P.Analysis.Analyzed);
  EXPECT_TRUE(P.degraded());
  // Generous bound for loaded CI machines; the point is "not 20s".
  EXPECT_LT(Ms, 5000.0);
}

TEST(RobustnessTest, DegradationsSurfaceAsWarnings) {
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxIGNodes = 40;
  Pipeline P = Pipeline::analyzeSource(stressProgram(), Opts);
  ASSERT_TRUE(P.degraded());
  bool Found = false;
  for (const Diagnostic &D : P.Diags.diagnostics())
    if (D.Level == DiagLevel::Warning &&
        D.Message.find("analysis degraded [ig_nodes]") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(RobustnessTest, UngovernedPathologicalRunStaysClean) {
  // Without limits the same generator output analyzes cleanly: no
  // meter, no degradations, deterministic result.
  Pipeline P = Pipeline::analyzeSource(stressProgram());
  ASSERT_TRUE(P.ok()) << P.Diags.dump();
  EXPECT_FALSE(P.degraded());
  EXPECT_TRUE(P.Analysis.Degradations.empty());
}

} // namespace
