//===- SoundnessPropertyTest.cpp - Def. 3.3 safety oracle ----------------------===//
//
// Property P1 of DESIGN.md: runs real executions through the concrete
// SIMPLE interpreter and cross-checks every observable points-to fact
// against the analysis (Definition 3.3 of the paper):
//   (1) every concrete pointer fact must be covered by a D or P pair;
//   (2) every definite pair must agree with the concrete store.
// The sweep covers hand-written kernels, the whole corpus, and a seeded
// sweep of generated programs with varying feature mixes.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "interp/Interpreter.h"
#include "wlgen/WorkloadGen.h"

using namespace mcpta;
using namespace mcpta::interp;
using namespace mcpta::testutil;

namespace {

void expectSound(const std::string &Src, const std::string &Label) {
  Pipeline P = Pipeline::analyzeSource(Src);
  ASSERT_FALSE(P.Diags.hasErrors()) << Label << ": " << P.Diags.dump();
  ASSERT_TRUE(P.Analysis.Analyzed) << Label;
  InterpOptions Opts;
  Opts.MaxSteps = 2000000;
  RunResult R = runAndCheck(*P.Prog, P.Analysis, Opts);
  EXPECT_TRUE(R.Error.empty()) << Label << ": " << R.Error;
  for (const std::string &V : R.Violations)
    ADD_FAILURE() << Label << ": " << V;
  EXPECT_LE(R.Violations.size(), 0u) << Label;
}

TEST(SoundnessPropertyTest, BasicKernels) {
  expectSound(R"(
    int main(void) {
      int x; int y; int c; int *p; int **q;
      c = 1;
      p = &x;
      if (c) p = &y;
      q = &p;
      *q = &x;
      **q = 3;
      return x;
    })",
              "branches");
  expectSound(R"(
    int main(void) {
      int a[4]; int *p; int i;
      for (i = 0; i < 4; i++) {
        p = &a[i];
        *p = i;
      }
      return a[3];
    })",
              "arrays");
  expectSound(R"(
    void *malloc(int);
    struct N { struct N *next; int v; };
    int main(void) {
      struct N *h; struct N *t; int i;
      h = NULL;
      for (i = 0; i < 3; i++) {
        t = (struct N *)malloc(16);
        t->next = h;
        t->v = i;
        h = t;
      }
      while (h != NULL)
        h = h->next;
      return 0;
    })",
              "heap list");
}

TEST(SoundnessPropertyTest, InterproceduralKernels) {
  expectSound(R"(
    int g;
    void set(int **pp, int *v) { *pp = v; }
    int *pick(int c, int *a, int *b) {
      if (c) return a;
      return b;
    }
    int main(void) {
      int x; int y; int *p; int *q;
      set(&p, &x);
      q = pick(1, &x, &y);
      *q = 4;
      g = *p;
      return g;
    })",
              "calls");
  expectSound(R"(
    int g;
    void rec(int **pp, int n) {
      if (n <= 0) { *pp = &g; return; }
      rec(pp, n - 1);
    }
    int main(void) {
      int *p;
      rec(&p, 3);
      *p = 9;
      return g;
    })",
              "recursion");
  expectSound(R"(
    int t1(void) { return 1; }
    int t2(void) { return 2; }
    int (*tab[2])(void) = {t1, t2};
    int main(void) {
      int (*f)(void);
      int i; int s;
      s = 0;
      for (i = 0; i < 2; i++) {
        f = tab[i];
        s = s + f();
      }
      return s;
    })",
              "function pointers");
}

TEST(SoundnessPropertyTest, CorpusIsSound) {
  for (const auto &CP : corpus::corpus())
    expectSound(CP.Source, CP.Name);
}

/// Seeded generator sweep: one test instantiation per configuration.
struct SweepCase {
  const char *Name;
  wlgen::GenConfig Cfg;
};

/// Prints a case by its name, so the test's listed name carries no pointer
/// values and stays the same from one build to the next.
void PrintTo(const SweepCase &C, std::ostream *OS) { *OS << C.Name; }

class GeneratedSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GeneratedSweep, Sound) {
  const SweepCase &C = GetParam();
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    wlgen::GenConfig Cfg = C.Cfg;
    Cfg.Seed = Seed;
    std::string Src = wlgen::generateProgram(Cfg);
    expectSound(Src, std::string(C.Name) + "/seed" + std::to_string(Seed));
  }
}

static SweepCase sweepCase(const char *Name, bool FnPtrs, bool Recursion,
                           bool Heap, bool Loops, unsigned Fns,
                           unsigned Stmts) {
  SweepCase C;
  C.Name = Name;
  C.Cfg.UseFunctionPointers = FnPtrs;
  C.Cfg.UseRecursion = Recursion;
  C.Cfg.UseHeap = Heap;
  C.Cfg.UseLoops = Loops;
  C.Cfg.NumFunctions = Fns;
  C.Cfg.StmtsPerFunction = Stmts;
  return C;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GeneratedSweep,
    ::testing::Values(
        sweepCase("plain", false, false, false, false, 4, 8),
        sweepCase("loops", false, false, false, true, 4, 10),
        sweepCase("heap", false, false, true, true, 5, 10),
        sweepCase("recursion", false, true, true, true, 5, 10),
        sweepCase("fnptrs", true, true, true, true, 6, 10),
        sweepCase("big", true, true, true, true, 8, 12)),
    [](const ::testing::TestParamInfo<SweepCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
