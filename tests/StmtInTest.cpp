//===- StmtInTest.cpp - per-statement IN sets, hand-computed --------------===//
//
// Result::StmtIn at every statement of a small program analyzed in two
// calling contexts with different arguments. The program puts a
// statement at each place whose IN is its predecessor's on every visit
// (the successor of a non-pointer assignment, the then/else heads of an
// if, the head of a nested then-block, a non-pointer struct copy, a
// break after a non-pointer assignment), so the sets recorded there
// must come out exactly as if each statement had folded its own INs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mcpta;
using namespace mcpta::simple;
using mcpta::testutil::analyze;

namespace {

const char *const Program = R"(
  struct S { int a; int b; };
  int x, y, z;
  int *g;
  void f(int *p, int c) {
    int n;
    struct S s, t;
    int *q;
    n = c;
    q = p;
    if (c) {
      if (c) {
        n = 1;
        g = q;
      }
    } else {
      s = t;
      g = &z;
    }
    while (c) {
      n = 2;
      break;
    }
    q = g;
  }
  int main(void) {
    f(&x, 1);
    f(&y, 0);
    return 0;
  }
)";

std::string inAt(const Pipeline &P, const Stmt *S) {
  const auto &In = P.Analysis.StmtIn;
  if (S->id() >= In.size() || !In[S->id()])
    return "<unset>";
  return In[S->id()]->str(*P.Analysis.Locs);
}

const FunctionIR &function(const Pipeline &P, const std::string &Name) {
  for (const FunctionIR &F : P.Prog->functions())
    if (F.Decl->name() == Name)
      return F;
  ADD_FAILURE() << "no function " << Name;
  return P.Prog->functions().front();
}

const std::vector<Stmt *> &bodyOf(const Stmt *S) {
  return castStmt<BlockStmt>(S)->Body;
}

TEST(StmtInTest, SharedFoldsRecordTheHandComputedSets) {
  Pipeline P = analyze(Program);
  ASSERT_TRUE(P.ok());

  // f's SIMPLE body:
  //   n = c; q = p;
  //   if (c) { if (c) { n = 1; g = q; } } else { s = t; g = &z; }
  //   $t0 = c; while ($t0) { n = 2; break; } trailer: { $t0 = c; }
  //   q = g;
  const std::vector<Stmt *> &F = bodyOf(function(P, "f").Body);
  ASSERT_EQ(F.size(), 6u);
  const auto *OuterIf = castStmt<IfStmt>(F[2]);
  const auto *InnerIf = castStmt<IfStmt>(bodyOf(OuterIf->Then)[0]);
  const std::vector<Stmt *> &InnerThen = bodyOf(InnerIf->Then);
  const std::vector<Stmt *> &Else = bodyOf(OuterIf->Else);
  const auto *Loop = castStmt<LoopStmt>(F[4]);
  const std::vector<Stmt *> &LoopBody = bodyOf(Loop->Body);
  const std::vector<Stmt *> &Trailer = bodyOf(Loop->Trailer);
  ASSERT_EQ(InnerThen.size(), 2u);
  ASSERT_EQ(Else.size(), 2u);
  ASSERT_EQ(LoopBody.size(), 2u);
  ASSERT_EQ(LoopBody[1]->kind(), Stmt::Kind::Break);

  // Context 1, f(&x, 1): f starts from (g,NULL,D) (p,x,D) (q,NULL,D);
  // after q = p, (q,x,D). Context 2, f(&y, 0), runs after context 1 has
  // made g point to NULL, x or z: (g,NULL|x|z,P) (p,y,D) (q,NULL,D);
  // after q = p, (q,y,D). Each statement's set merges both contexts.
  const std::string Entry =
      "(g,NULL,P) (g,x,P) (g,z,P) (p,x,P) (p,y,P) (q,NULL,D)";
  EXPECT_EQ(inAt(P, F[0]), Entry) << "n = c";
  EXPECT_EQ(inAt(P, F[1]), Entry) << "q = p after a non-pointer assignment";

  const std::string AtIf =
      "(g,NULL,P) (g,x,P) (g,z,P) (p,x,P) (p,y,P) (q,x,P) (q,y,P)";
  EXPECT_EQ(inAt(P, OuterIf), AtIf) << "if (c)";
  EXPECT_EQ(inAt(P, InnerIf), AtIf) << "then head";
  EXPECT_EQ(inAt(P, InnerThen[0]), AtIf) << "nested then-block head";
  EXPECT_EQ(inAt(P, InnerThen[1]), AtIf) << "g = q after n = 1";
  EXPECT_EQ(inAt(P, Else[0]), AtIf) << "else head, a non-pointer struct copy";
  EXPECT_EQ(inAt(P, Else[1]), AtIf) << "g = &z after the struct copy";

  // Both branches merged: the inner then makes g point to q's target,
  // and skipping it keeps g; the else makes g point to z.
  const std::string AfterIf = "(g,NULL,P) (g,x,P) (g,y,P) (g,z,P) (p,x,P) "
                              "(p,y,P) (q,x,P) (q,y,P)";
  EXPECT_EQ(inAt(P, F[3]), AfterIf) << "$t0 = c";
  EXPECT_EQ(inAt(P, Loop), AfterIf) << "while after $t0 = c";
  EXPECT_EQ(inAt(P, LoopBody[0]), AfterIf) << "n = 2";
  EXPECT_EQ(inAt(P, LoopBody[1]), "<unset>") << "a break records nothing";
  EXPECT_EQ(inAt(P, Trailer[0]), "<unset>")
      << "the trailer is unreachable: the body always breaks";
  EXPECT_EQ(inAt(P, F[5]), AfterIf) << "q = g";

  const std::vector<Stmt *> &Main = bodyOf(function(P, "main").Body);
  ASSERT_EQ(Main.size(), 5u);
  EXPECT_EQ(inAt(P, Main[0]), "($t1,NULL,D) ($t2,NULL,D) (g,NULL,D)");
  EXPECT_EQ(inAt(P, Main[1]), "($t1,x,D) ($t2,NULL,D) (g,NULL,D)");
  EXPECT_EQ(inAt(P, Main[2]),
            "($t1,x,D) ($t2,NULL,D) (g,NULL,P) (g,x,P) (g,z,P)");
  EXPECT_EQ(inAt(P, Main[3]), "($t1,x,D) ($t2,y,D) (g,NULL,P) (g,x,P) (g,z,P)");
  EXPECT_EQ(inAt(P, Main[4]),
            "($t1,x,D) ($t2,y,D) (g,NULL,P) (g,x,P) (g,y,P) (g,z,P)");
}

/// A liveness filter turns fold sharing off (a dead statement records
/// nothing, so none may stand in for another). With every statement
/// live, the sets must be the shared run's, statement for statement.
TEST(StmtInTest, UnsharedFoldsRecordTheSameSets) {
  Pipeline Shared = analyze(Program);
  ASSERT_TRUE(Shared.ok());
  std::vector<uint8_t> AllLive(Shared.Prog->numStmts(), 1);
  pta::Analyzer::Options Opts;
  Opts.LiveStmts = &AllLive;
  Pipeline Unshared = analyze(Program, Opts);
  ASSERT_TRUE(Unshared.ok());
  const std::vector<Stmt *> &A = Shared.Prog->allStmts();
  const std::vector<Stmt *> &B = Unshared.Prog->allStmts();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(inAt(Shared, A[I]), inAt(Unshared, B[I])) << printStmt(A[I]);
}

} // namespace
