//===- WorkloadGenTest.cpp - synthetic program generator tests -----------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "interp/Interpreter.h"
#include "wlgen/WorkloadGen.h"

using namespace mcpta;
using namespace mcpta::wlgen;
using namespace mcpta::testutil;

namespace {

TEST(WorkloadGenTest, Deterministic) {
  GenConfig Cfg;
  Cfg.Seed = 7;
  EXPECT_EQ(generateProgram(Cfg), generateProgram(Cfg));
  GenConfig Cfg2 = Cfg;
  Cfg2.Seed = 8;
  EXPECT_NE(generateProgram(Cfg), generateProgram(Cfg2));
}

TEST(WorkloadGenTest, GeneratedProgramsAnalyze) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.UseFunctionPointers = (Seed % 2) == 0;
    std::string Src = generateProgram(Cfg);
    Pipeline P = Pipeline::analyzeSource(Src);
    EXPECT_FALSE(P.Diags.hasErrors())
        << "seed " << Seed << ":\n" << P.Diags.dump() << Src;
    EXPECT_TRUE(P.Analysis.Analyzed) << "seed " << Seed;
  }
}

TEST(WorkloadGenTest, GeneratedProgramsTerminate) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    GenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.UseRecursion = true;
    Cfg.UseLoops = true;
    std::string Src = generateProgram(Cfg);
    Pipeline P = Pipeline::frontend(Src);
    ASSERT_TRUE(P.Prog) << "seed " << Seed;
    auto R = interp::run(*P.Prog, 3000000);
    EXPECT_TRUE(R.Completed) << "seed " << Seed << ": " << R.Error;
  }
}

TEST(QueryWorkloadTest, DeterministicAndValid) {
  QueryWorkloadConfig Cfg;
  Cfg.Seed = 5;
  QueryWorkload W = queryWorkload(Cfg);
  QueryWorkload W2 = queryWorkload(Cfg);
  EXPECT_EQ(W.Source, W2.Source);
  ASSERT_EQ(W.Queries.size(), W2.Queries.size());
  for (size_t I = 0; I < W.Queries.size(); ++I) {
    EXPECT_EQ(W.Queries[I].Name, W2.Queries[I].Name);
    EXPECT_EQ(W.Queries[I].A, W2.Queries[I].A);
    EXPECT_EQ(W.Queries[I].Hot, W2.Queries[I].Hot);
  }
  EXPECT_EQ(W.Queries.size(), static_cast<size_t>(Cfg.NumQueries));

  Pipeline P = Pipeline::analyzeSource(W.Source);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump() << W.Source;
  EXPECT_TRUE(P.Analysis.Analyzed);
}

TEST(QueryWorkloadTest, HotColdSkewTracksConfig) {
  QueryWorkloadConfig Cfg;
  Cfg.Seed = 11;
  Cfg.NumQueries = 64;
  Cfg.HotPercent = 75;
  QueryWorkload W = queryWorkload(Cfg);
  size_t Hot = 0;
  for (const QuerySpec &Q : W.Queries) {
    Hot += Q.Hot;
    // Hot queries touch main's m-prefixed frame; cold ones globals.
    const std::string &Base = Q.K == QuerySpec::Kind::PointsTo ? Q.Name : Q.A;
    size_t Star = Base.find_first_not_of('*');
    ASSERT_NE(Star, std::string::npos);
    if (Q.Hot)
      EXPECT_EQ(Base[Star], 'm') << Base;
    else
      EXPECT_EQ(Base[Star], 'g') << Base;
  }
  // Binomial(64, 0.75): the deterministic draw lands well inside this.
  EXPECT_GT(Hot, 32u);
  EXPECT_LT(Hot, 64u);

  Cfg.HotPercent = 0;
  for (const QuerySpec &Q : queryWorkload(Cfg).Queries)
    EXPECT_FALSE(Q.Hot);
}

TEST(QueryWorkloadTest, GatedShapesStillGenerateValidPrograms) {
  for (int Mode = 0; Mode < 2; ++Mode) {
    QueryWorkloadConfig Cfg;
    Cfg.Seed = 3;
    Cfg.UseFunctionPointers = Mode == 0;
    Cfg.UseRecursion = Mode == 1;
    QueryWorkload W = queryWorkload(Cfg);
    Pipeline P = Pipeline::analyzeSource(W.Source);
    EXPECT_FALSE(P.Diags.hasErrors())
        << "mode " << Mode << ":\n" << P.Diags.dump() << W.Source;
    EXPECT_TRUE(P.Analysis.Analyzed);
  }
}

TEST(WorkloadGenTest, PathologicalSourceIsValidAndTerminating) {
  // Hostile to the analyzer, but still a well-formed terminating
  // program: small shapes must parse, analyze cleanly ungoverned, and
  // run to completion under the interpreter.
  std::string Src = pathologicalSource(3, 2, 3, 4);
  EXPECT_EQ(Src, pathologicalSource(3, 2, 3, 4)); // deterministic
  Pipeline P = Pipeline::analyzeSource(Src);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump() << Src;
  EXPECT_TRUE(P.Analysis.Analyzed);
  EXPECT_FALSE(P.degraded());

  Pipeline F = Pipeline::frontend(Src);
  ASSERT_TRUE(F.Prog);
  auto R = interp::run(*F.Prog, 3000000);
  EXPECT_TRUE(R.Completed) << R.Error;
}

TEST(WorkloadGenTest, PathologicalSourceScalesContexts) {
  // Each extra level multiplies direct call sites by the fanout, so
  // the source (and the invocation graph it induces) must grow.
  EXPECT_GT(pathologicalSource(6, 3, 4, 8).size(),
            pathologicalSource(3, 3, 4, 8).size());
}

TEST(WorkloadGenTest, LivcShapeMatchesPaperDescription) {
  // The paper's livc: 82 functions, three arrays of 24 function
  // pointers (72 address-taken), three indirect call sites in loops.
  std::string Src = livcSource();
  Pipeline P = Pipeline::frontend(Src);
  ASSERT_TRUE(P.Prog) << P.Diags.dump();

  unsigned Defined = 0, AddressTaken = 0;
  for (const auto *F : P.Unit->functions())
    if (F->isDefined() && F->name() != "main") {
      ++Defined;
      if (F->isAddressTaken())
        ++AddressTaken;
    }
  EXPECT_EQ(Defined, 82u);
  EXPECT_EQ(AddressTaken, 72u);

  unsigned IndirectSites = 0;
  for (const auto &F : P.Prog->functions())
    for (const simple::CallInfo *CI : F.Calls)
      if (CI->isIndirect())
        ++IndirectSites;
  EXPECT_EQ(IndirectSites, 3u);
}

TEST(MutateSourceTest, EveryKindAppliesToCorpusPrograms) {
  // Every kind finds a site in every corpus program, the edit is
  // deterministic, and the mutant still parses and analyzes.
  for (const char *Name : {"hash", "xref", "incrstress"}) {
    const corpus::CorpusProgram *CP = corpus::find(Name);
    ASSERT_NE(CP, nullptr);
    std::string Seed = CP->Source;
    for (MutationKind K : AllMutationKinds) {
      std::string Mut = mutateSource(Seed, K);
      EXPECT_NE(Mut, Seed) << Name << "/" << mutationKindName(K);
      EXPECT_EQ(Mut, mutateSource(Seed, K))
          << Name << "/" << mutationKindName(K);
      Pipeline P = Pipeline::analyzeSource(Mut);
      EXPECT_FALSE(P.Diags.hasErrors())
          << Name << "/" << mutationKindName(K) << ":\n" << P.Diags.dump();
      EXPECT_TRUE(P.Analysis.Analyzed) << Name << "/" << mutationKindName(K);
    }
  }
}

TEST(MutateSourceTest, InapplicableKindReturnsSeedUnchanged) {
  std::string Seed = "int main(void) {\n  return 0;\n}\n";
  EXPECT_EQ(mutateSource(Seed, MutationKind::RenameLocal), Seed);
  EXPECT_EQ(mutateSource(Seed, MutationKind::RemoveAssignment), Seed);
  EXPECT_EQ(mutateSource(Seed, MutationKind::AddAssignment), Seed);
  // AddCall needs only a function body, so it always applies.
  EXPECT_NE(mutateSource(Seed, MutationKind::AddCall), Seed);
}

TEST(MutateSourceTest, SaltSelectsDistinctSites) {
  std::string Seed = "int main(void) {\n"
                     "  int a;\n"
                     "  int b;\n"
                     "  a = 1;\n"
                     "  b = 2;\n"
                     "  return a + b;\n"
                     "}\n";
  std::string R0 = mutateSource(Seed, MutationKind::TweakConstant, 0);
  std::string R1 = mutateSource(Seed, MutationKind::TweakConstant, 1);
  EXPECT_NE(R0, Seed);
  EXPECT_NE(R1, Seed);
  EXPECT_NE(R0, R1);
  EXPECT_NE(R0.find("a = 2;"), std::string::npos) << R0;
  EXPECT_NE(R1.find("b = 3;"), std::string::npos) << R1;
}

TEST(MutateSourceTest, RenameRespectsFieldsAndScope) {
  std::string Seed = "struct s { int t; };\n"
                     "int t;\n"
                     "int other(void) {\n"
                     "  t = 3;\n"
                     "  return t;\n"
                     "}\n"
                     "int main(void) {\n"
                     "  struct s v;\n"
                     "  int t;\n"
                     "  t = 1;\n"
                     "  v.t = t;\n"
                     "  return v.t;\n"
                     "}\n";
  // Salt selects the local `t` in main (candidates are file-ordered:
  // v, then t).
  std::string Mut = mutateSource(Seed, MutationKind::RenameLocal, 1);
  EXPECT_NE(Mut.find("int t_r;"), std::string::npos) << Mut;
  EXPECT_NE(Mut.find("t_r = 1;"), std::string::npos) << Mut;
  // Field accesses and the other function's global use keep the name.
  EXPECT_NE(Mut.find("v.t = t_r;"), std::string::npos) << Mut;
  EXPECT_NE(Mut.find("t = 3;"), std::string::npos) << Mut;
}

TEST(WorkloadGenTest, ScalesWithConfig) {
  GenConfig Small;
  Small.NumFunctions = 2;
  Small.StmtsPerFunction = 4;
  GenConfig Large;
  Large.NumFunctions = 12;
  Large.StmtsPerFunction = 20;
  EXPECT_LT(generateProgram(Small).size(), generateProgram(Large).size());
}

} // namespace
