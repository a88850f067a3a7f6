//===- AliasPairsTest.cpp - Sec. 7.1 / Figures 8 & 9 tests ---------------------===//

#include "TestUtil.h"

#include "clients/AliasPairs.h"
#include "corpus/Corpus.h"
#include "wlgen/WorkloadGen.h"

#include <map>
#include <vector>

using namespace mcpta;
using namespace mcpta::testutil;
using namespace mcpta::clients;

namespace {

std::set<std::pair<std::string, std::string>> pairsAtEnd(const Pipeline &P) {
  return aliasPairs(*P.Analysis.MainOut, *P.Analysis.Locs, 2);
}

TEST(AliasPairsTest, SimplePointsToImpliesAlias) {
  auto P = analyze("int main(void){ int y; int *x; x = &y; return 0; }");
  auto Pairs = pairsAtEnd(P);
  EXPECT_TRUE(hasAlias(Pairs, "*x", "y"));
}

TEST(AliasPairsTest, PaperFigure8NoSpuriousPair) {
  // Figure 8: x = &y; y = &z; y = &w.
  // At S3 the points-to set is (x,y,D),(y,w,D); the alias pairs are
  // (*x,y), (*y,w), (**x,*y), (**x,w) — and crucially NOT (**x,z),
  // the spurious pair the Landi/Ryder representation reports.
  auto P = analyze(R"(
    int main(void) {
      int **x; int *y; int z; int w;
      x = &y;   /* S1 */
      y = &z;   /* S2 */
      y = &w;   /* S3 */
      return 0;
    })");
  auto Pairs = pairsAtEnd(P);
  EXPECT_TRUE(hasAlias(Pairs, "*x", "y"));
  EXPECT_TRUE(hasAlias(Pairs, "*y", "w"));
  EXPECT_TRUE(hasAlias(Pairs, "**x", "*y"));
  EXPECT_TRUE(hasAlias(Pairs, "**x", "w"));
  EXPECT_FALSE(hasAlias(Pairs, "**x", "z"))
      << "the kill at S3 removes the z alias";
}

TEST(AliasPairsTest, PaperFigure9TransitiveClosureArtifact) {
  // Figure 9: branches assign a = &b and b = &c; at S3 the points-to
  // set is (a,b,P),(b,c,P) and the closure reports the spurious
  // (**a,c) — the case where alias pairs are more precise than the
  // points-to abstraction. We document the artifact by asserting it.
  auto P = analyze(R"(
    int main(void) {
      int **a; int *b; int c;
      if (c)
        a = &b;   /* S1 */
      else
        b = &c;   /* S2 */
      /* S3 */
      return 0;
    })");
  EXPECT_TRUE(mainHasPair(P, "a", "b", 'P')) << mainOut(P);
  EXPECT_TRUE(mainHasPair(P, "b", "c", 'P')) << mainOut(P);
  auto Pairs = pairsAtEnd(P);
  EXPECT_TRUE(hasAlias(Pairs, "*a", "b"));
  EXPECT_TRUE(hasAlias(Pairs, "*b", "c"));
  EXPECT_TRUE(hasAlias(Pairs, "**a", "c"))
      << "expected closure artifact of the points-to abstraction";
}

TEST(AliasPairsTest, DepthLimitRespected) {
  auto P = analyze(R"(
    int main(void) {
      int ***t; int **x; int *y; int z;
      y = &z; x = &y; t = &x;
      return 0;
    })");
  auto Depth1 = aliasPairs(*P.Analysis.MainOut, *P.Analysis.Locs, 1);
  EXPECT_TRUE(hasAlias(Depth1, "*t", "x"));
  EXPECT_FALSE(hasAlias(Depth1, "**t", "y"));
  auto Depth2 = aliasPairs(*P.Analysis.MainOut, *P.Analysis.Locs, 2);
  EXPECT_TRUE(hasAlias(Depth2, "**t", "y"));
}

TEST(AliasPairsTest, NoAliasBetweenUnrelated) {
  auto P = analyze("int main(void){ int a; int b; int *p; int *q; "
                   "p = &a; q = &b; return 0; }");
  auto Pairs = pairsAtEnd(P);
  EXPECT_FALSE(hasAlias(Pairs, "*p", "*q"));
  EXPECT_TRUE(hasAlias(Pairs, "*p", "a"));
  EXPECT_TRUE(hasAlias(Pairs, "*q", "b"));
}

TEST(AliasPairsTest, SharedTargetAliasesThroughBothPointers) {
  auto P = analyze("int main(void){ int a; int *p; int *q; "
                   "p = &a; q = &a; return 0; }");
  auto Pairs = pairsAtEnd(P);
  EXPECT_TRUE(hasAlias(Pairs, "*p", "*q"));
}

//===----------------------------------------------------------------------===//
// Oracle: the straightforward ordered-container implementation
//===----------------------------------------------------------------------===//

/// Reference aliasPairs spelled directly from the definition: strings per
/// location in ordered maps, every pair inserted into an ordered set.
/// The production version must agree with it exactly.
std::set<std::pair<std::string, std::string>>
naiveAliasPairs(const pta::PointsToSet &S, const pta::LocationTable &Locs,
                unsigned MaxDerefs) {
  using namespace mcpta::pta;
  // expressions[L] = access expressions that designate location L.
  // Depth 0: the location's own name. Depth k+1: "*e" for every e of
  // depth k designating some X with (X, L) in S.
  std::map<const Location *, std::vector<std::string>> Exprs;
  std::map<const Location *, std::vector<std::string>> Frontier;

  std::set<const Location *> Mentioned;
  S.forEach(Locs, [&](const Location *Src, const Location *Dst, Def) {
    Mentioned.insert(Src);
    Mentioned.insert(Dst);
  });
  for (const Location *L : Mentioned) {
    Exprs[L].push_back(L->str());
    Frontier[L].push_back(L->str());
  }

  for (unsigned Depth = 0; Depth < MaxDerefs; ++Depth) {
    std::map<const Location *, std::vector<std::string>> Next;
    for (const Location *Src : Mentioned) {
      auto It = Frontier.find(Src);
      if (It == Frontier.end() || It->second.empty())
        continue;
      for (const LocDef &T : S.targetsOf(Src, Locs)) {
        if (T.Loc->isNull())
          continue;
        for (const std::string &E : It->second) {
          std::string Deref = "*" + E;
          Next[T.Loc].push_back(Deref);
          Exprs[T.Loc].push_back(Deref);
        }
      }
    }
    Frontier = std::move(Next);
  }

  std::set<std::pair<std::string, std::string>> Out;
  for (const auto &[L, Es] : Exprs) {
    (void)L;
    for (size_t I = 0; I < Es.size(); ++I)
      for (size_t J = I + 1; J < Es.size(); ++J) {
        std::string A = Es[I], B = Es[J];
        if (A == B)
          continue;
        if (B < A)
          std::swap(A, B);
        Out.insert({A, B});
      }
  }
  return Out;
}

/// Compares aliasPairs with the oracle at depths 1-3 on the end-of-main
/// set and on a sample of per-statement input sets.
void expectMatchesOracle(const Pipeline &P, const std::string &Label) {
  ASSERT_TRUE(P.Analysis.Analyzed) << Label;
  std::vector<const pta::PointsToSet *> Sets;
  if (P.Analysis.MainOut)
    Sets.push_back(&*P.Analysis.MainOut);
  const auto &StmtIn = P.Analysis.StmtIn;
  const size_t Stride = StmtIn.size() / 16 + 1;
  for (size_t I = 0; I < StmtIn.size(); I += Stride)
    if (StmtIn[I])
      Sets.push_back(&*StmtIn[I]);
  for (const pta::PointsToSet *S : Sets)
    for (unsigned Depth = 1; Depth <= 3; ++Depth)
      EXPECT_EQ(aliasPairs(*S, *P.Analysis.Locs, Depth),
                naiveAliasPairs(*S, *P.Analysis.Locs, Depth))
          << Label << " depth " << Depth;
}

TEST(AliasPairsTest, MatchesOracleOnCorpus) {
  for (const corpus::CorpusProgram &CP : corpus::corpus())
    expectMatchesOracle(analyze(CP.Source), CP.Name);
}

TEST(AliasPairsTest, MatchesOracleOnGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    wlgen::GenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.UseFunctionPointers = Seed % 2 == 1;
    expectMatchesOracle(analyze(wlgen::generateProgram(Cfg)),
                        "seed " + std::to_string(Seed));
  }
}

} // namespace
