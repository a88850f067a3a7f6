//===- BaselinesTest.cpp - ablation baseline tests -----------------------------===//

#include "TestUtil.h"

#include "baselines/Andersen.h"
#include "corpus/Corpus.h"
#include "baselines/ContextInsensitive.h"

using namespace mcpta;
using namespace mcpta::baselines;
using namespace mcpta::testutil;

namespace {

// The classic context-sensitivity separator: one helper called from two
// call sites with different arguments.
const char *const SeparatorSrc = R"(
  void assign(int **dst, int *src) { *dst = src; }
  int main(void) {
    int a; int b;
    int *p; int *q;
    assign(&p, &a);
    assign(&q, &b);
    return *p + *q;
  })";

TEST(BaselinesTest, ContextInsensitiveLosesPrecision) {
  auto P = Pipeline::frontend(SeparatorSrc);
  ASSERT_TRUE(P.Prog);
  auto Cmp = PrecisionComparison::compute(*P.Prog);

  // Sensitive: *p, *q, and the callee's *dst all have one definite
  // target.
  EXPECT_EQ(Cmp.Sensitive.Stats.OneD.total(), 3u);
  // Insensitive: only *dst stays definite (dst -> 1_dst in the merged
  // summary); *p and *q see {a, b}.
  EXPECT_EQ(Cmp.Insensitive.Stats.OneD.total(), 1u);
  EXPECT_EQ(Cmp.Insensitive.Stats.TwoP.total(), 2u);
  EXPECT_GT(Cmp.Insensitive.Stats.average(),
            Cmp.Sensitive.Stats.average());
}

TEST(BaselinesTest, ContextInsensitiveStillSafe) {
  pta::Analyzer::Options Opts;
  Opts.ContextSensitive = false;
  auto P = analyze(SeparatorSrc, Opts);
  ASSERT_TRUE(P.Analysis.Analyzed);
  // Safe: both possibilities reported on both pointers.
  EXPECT_TRUE(mainHasPair(P, "p", "a", 'P')) << mainOut(P);
  EXPECT_TRUE(mainHasPair(P, "p", "b", 'P')) << mainOut(P);
  EXPECT_TRUE(mainHasPair(P, "q", "a", 'P')) << mainOut(P);
  EXPECT_TRUE(mainHasPair(P, "q", "b", 'P')) << mainOut(P);
}

TEST(BaselinesTest, ContextInsensitiveHandlesRecursion) {
  pta::Analyzer::Options Opts;
  Opts.ContextSensitive = false;
  auto P = analyze(R"(
    int g;
    void rec(int **pp, int n) {
      if (n <= 0) { *pp = &g; return; }
      rec(pp, n - 1);
    }
    int main(void) {
      int *p;
      rec(&p, 3);
      return *p;
    })",
                   Opts);
  EXPECT_TRUE(mainHasPair(P, "p", "g")) << mainOut(P);
}

TEST(BaselinesTest, AndersenBasics) {
  auto P = Pipeline::frontend(R"(
    int main(void) {
      int x; int y; int *p; int *q;
      p = &x;
      q = p;
      p = &y;
      return *q;
    })");
  auto R = AndersenAnalysis::run(*P.Prog);
  // Flow-insensitive: no kills; p sees both, q sees both through the
  // inclusion p ⊆ q evaluated over the final solution.
  const auto &Pp = R.pointsTo("main::p");
  EXPECT_TRUE(Pp.count("main::x"));
  EXPECT_TRUE(Pp.count("main::y"));
  const auto &Pq = R.pointsTo("main::q");
  EXPECT_TRUE(Pq.count("main::x"));
  EXPECT_TRUE(Pq.count("main::y")) << "flow-insensitivity artifact";
}

TEST(BaselinesTest, AndersenLoadStore) {
  auto P = Pipeline::frontend(R"(
    int main(void) {
      int x; int *p; int **q; int *r;
      p = &x;
      q = &p;
      r = *q;
      return *r;
    })");
  auto R = AndersenAnalysis::run(*P.Prog);
  EXPECT_TRUE(R.pointsTo("main::r").count("main::x"));
}

TEST(BaselinesTest, AndersenIndirectCalls) {
  auto P = Pipeline::frontend(R"(
    int g;
    int f(int *p) { g = *p; return 0; }
    int main(void) {
      int x;
      int (*fp)(int *);
      fp = f;
      return fp(&x);
    })");
  auto R = AndersenAnalysis::run(*P.Prog);
  EXPECT_TRUE(R.pointsTo("main::fp").count("f"));
  EXPECT_TRUE(R.pointsTo("f::p").count("main::x"))
      << "indirect call binds arguments";
}

TEST(BaselinesTest, AndersenCoarserThanFlowSensitive) {
  // Flow-sensitive kills make the paper's analysis strictly more
  // precise on the strong-update pattern.
  const char *Src = R"(
    int main(void) {
      int x; int y; int *p;
      p = &x;
      p = &y;
      return *p;
    })";
  auto P = analyze(Src);
  EXPECT_FALSE(mainHasPair(P, "p", "x")) << mainOut(P);

  auto PF = Pipeline::frontend(Src);
  auto R = AndersenAnalysis::run(*PF.Prog);
  EXPECT_TRUE(R.pointsTo("main::p").count("main::x"))
      << "Andersen keeps the stale target";
  EXPECT_GE(R.AvgIndirectTargets, 2.0);
}

// strchr is a ReturnsArg0 extern: the precise analyzer points the
// result into arg0's object, so the baseline must too (not at heap).
const char *const StrchrSrc = R"(
  char *strchr(char *, int);
  int main(void) {
    char buf[8]; char *p;
    p = strchr(buf, 'a');
    return *p;
  })";

TEST(BaselinesTest, AndersenExternReturnsArg0) {
  auto P = analyze(StrchrSrc);
  EXPECT_TRUE(mainHasPair(P, "p", "buf[0]", 'P')) << mainOut(P);

  auto R = AndersenAnalysis::run(*P.Prog);
  EXPECT_EQ(R.pointsTo("main::p"), std::set<std::string>{"main::buf"});
}

TEST(BaselinesTest, AndersenExternResultNeedsPointerLhs) {
  // Only a pointer-bearing left-hand side takes an extern's result,
  // and a non-ReturnsArg0 callee yields heap only when it returns a
  // pointer.
  auto P = Pipeline::frontend(R"(
    char *getenv(char *);
    int atoi(char *);
    int main(void) {
      char *e; int n; int *ip;
      e = getenv("HOME");
      n = atoi(e);
      ip = (int *)atoi(e);
      return n + *ip;
    })");
  ASSERT_TRUE(P.Prog);
  auto R = AndersenAnalysis::run(*P.Prog);
  EXPECT_EQ(R.pointsTo("main::e"), std::set<std::string>{"heap"});
  EXPECT_TRUE(R.pointsTo("main::n").empty());
  EXPECT_TRUE(R.pointsTo("main::ip").empty());
}

// Precision order at root granularity: every pair the precise analysis
// reports at the end of main is in the Andersen solution.
void expectPreciseWithinAndersen(const std::string &Src,
                                 const std::string &Tag) {
  auto P = analyze(Src);
  ASSERT_TRUE(P.Analysis.Analyzed) << Tag;
  auto R = AndersenAnalysis::run(*P.Prog);
  for (const std::string &Pair : rootPairs(P)) {
    size_t Sep = Pair.find(" -> ");
    ASSERT_NE(Sep, std::string::npos);
    EXPECT_TRUE(R.pointsTo(Pair.substr(0, Sep)).count(Pair.substr(Sep + 4)))
        << Tag << ": precise pair outside Andersen: " << Pair;
  }
}

TEST(BaselinesTest, PreciseWithinAndersenOnCorpus) {
  for (const auto &CP : corpus::corpus())
    expectPreciseWithinAndersen(CP.Source, CP.Name);
  expectPreciseWithinAndersen(StrchrSrc, "strchr");
}

TEST(BaselinesTest, AndersenTerminatesOnCorpus) {
  for (const auto &CP : corpus::corpus()) {
    auto P = Pipeline::frontend(CP.Source);
    ASSERT_TRUE(P.Prog) << CP.Name;
    auto R = AndersenAnalysis::run(*P.Prog);
    EXPECT_GT(R.SolverIterations, 0u) << CP.Name;
  }
}

} // namespace
