//===- Relevance.cpp - Query-relevance pre-pass for demand queries --------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "demand/Relevance.h"

#include "pointsto/Analyzer.h"

#include <deque>

namespace mcpta {
namespace demand {

using namespace mcpta::simple;
namespace cf = mcpta::cfront;

/// Conservative per-statement facts for the liveness pass, precomputed
/// once the flow-insensitive solution is stable.
struct Relevance::StmtFacts {
  unsigned StmtId = 0;
  /// Roots this statement may create/kill/demote triples for.
  std::set<int> Writes;
  /// Roots whose triples the statement's transfer function consults;
  /// joined into the relevant set when the statement goes live.
  std::set<int> Reads;
  /// exit()-style calls: pure control effect, always analyzed.
  bool AlwaysLive = false;
  /// Non-extern call (descends into the invocation graph when live).
  bool IsBodyCall = false;
};

Relevance::~Relevance() = default;

//===----------------------------------------------------------------------===//
// Construction: the shared solution and the per-statement facts
//===----------------------------------------------------------------------===//

Relevance::Relevance(const simple::Program &Prog) : Prog(Prog), Solver(Prog) {
  // Precompute the liveness facts for the pruned region (main's body
  // plus the global initializers) against the solution.
  std::vector<int> GlobSeeds;
  for (const cf::VarDecl *G : Prog.globals())
    if (G->type() && G->type()->isPointerBearing())
      GlobSeeds.push_back(rootOf(G));
  GlobSeeds.push_back(heapRoot());
  std::vector<uint8_t> GR = reachClosure(GlobSeeds);
  for (size_t I = 0; I < GR.size(); ++I)
    if (GR[I])
      GlobalReach.insert(static_cast<int>(I));

  auto OperandReads = [this](const Operand &Op, std::set<int> &Out) {
    if (!Op.isRef() || !Op.Ref.Base)
      return;
    int B = rootOf(Op.Ref.Base);
    if (B < 0)
      return;
    if (Op.Ref.AddrOf) {
      // &x reads nothing; &(*p).f reads p's triples to locate targets.
      if (Op.Ref.Deref)
        Out.insert(B);
      return;
    }
    Out.insert(B);
    if (Op.Ref.Deref)
      Out.insert(pts(B).begin(), pts(B).end());
  };

  auto CallFacts = [&](const CallInfo &CI, StmtFacts &F) {
    if (CI.NoReturn) {
      // Pure control effect (the call never returns); processCall
      // short-circuits before descending, so keeping it live is free.
      F.AlwaysLive = true;
      return;
    }
    if (CI.isIndirect()) {
      // Function-pointer calls are gated out before liveness is used;
      // stay conservative if one slips through.
      F.AlwaysLive = true;
      return;
    }
    const FunctionIR *Callee = Prog.findFunction(CI.Callee);
    if (!Callee || !Callee->Body) {
      // Extern model (mirrors Analyzer's applyExtern): the only write
      // is through the assignment's lhs, handled by the caller; the
      // only read is arg0's value for the strcpy family.
      if (pta::externCallModel(CI.Callee->name()) ==
              pta::ExternModel::ReturnsArg0 &&
          !CI.Args.empty())
        OperandReads(CI.Args[0], F.Reads);
      return;
    }
    // A call with a body: map() mirrors every pointer-bearing global,
    // the heap, and everything reachable from the actuals into the
    // callee, and unmap() kills/rewrites exactly those sources. The
    // call's conservative mod set is that whole mapped world — and a
    // *live* call must pull all of it into the relevant set, because
    // the callee's behavior (memoization, symbolic demotion) depends on
    // the entire mapped input being byte-identical to the exhaustive
    // run's.
    F.IsBodyCall = true;
    std::vector<int> Seeds;
    for (const Operand &A : CI.Args) {
      OperandReads(A, F.Reads);
      for (unsigned V : Solver.valueOf(A))
        Seeds.push_back(static_cast<int>(V));
    }
    std::vector<uint8_t> Reach = reachClosure(Seeds);
    for (size_t I = 0; I < Reach.size(); ++I)
      if (Reach[I])
        F.Writes.insert(static_cast<int>(I));
    F.Writes.insert(GlobalReach.begin(), GlobalReach.end());
    F.Reads.insert(F.Writes.begin(), F.Writes.end());
  };

  auto CollectBasic = [&](const Stmt *S) {
    if (S->kind() != Stmt::Kind::Assign && S->kind() != Stmt::Kind::Call)
      return;
    StmtFacts F;
    F.StmtId = S->id();
    if (const auto *A = dynCastStmt<AssignStmt>(S)) {
      if (A->Lhs.Base) {
        int B = rootOf(A->Lhs.Base);
        if (B >= 0) {
          if (A->Lhs.Deref) {
            F.Reads.insert(B);
            F.Writes.insert(pts(B).begin(), pts(B).end());
          } else {
            F.Writes.insert(B);
          }
        }
      }
      switch (A->RK) {
      case AssignStmt::RhsKind::Operand:
      case AssignStmt::RhsKind::Unary:
        OperandReads(A->A, F.Reads);
        break;
      case AssignStmt::RhsKind::Binary:
        OperandReads(A->A, F.Reads);
        OperandReads(A->B, F.Reads);
        break;
      case AssignStmt::RhsKind::Alloc:
        break;
      case AssignStmt::RhsKind::Call:
        CallFacts(A->Call, F);
        break;
      }
    } else if (const auto *C = dynCastStmt<CallStmt>(S)) {
      CallFacts(C->Call, F);
    }
    Facts.push_back(std::move(F));
  };
  forEachStmt(Prog.globalInit(), CollectBasic);
  if (const FunctionIR *Main = simple::findMain(Prog))
    forEachStmt(Main->Body, CollectBasic);
}

int Relevance::rootOf(const cf::VarDecl *V) const {
  baselines::AndersenSolver::NodeId N = Solver.node(V);
  return N == baselines::AndersenSolver::NoNode ? -1 : static_cast<int>(N);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
Relevance::reachClosure(const std::vector<int> &Seeds) const {
  std::vector<uint8_t> In(numRoots(), 0);
  std::deque<int> Work;
  for (int S : Seeds)
    if (S >= 0 && S < static_cast<int>(In.size()) && !In[S]) {
      In[S] = 1;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    int R = Work.front();
    Work.pop_front();
    for (unsigned T : pts(R))
      if (!In[T]) {
        In[T] = 1;
        Work.push_back(T);
      }
  }
  return In;
}

Relevance::Liveness
Relevance::liveness(const std::vector<int> &SeedRoots) const {
  Liveness Out;
  Out.LiveStmts.assign(Prog.numStmts(), 1);

  std::vector<uint8_t> Rel(numRoots(), 0);
  for (int S : SeedRoots)
    if (S >= 0 && S < static_cast<int>(Rel.size()))
      Rel[S] = 1;

  std::vector<uint8_t> Live(Facts.size(), 0);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Facts.size(); ++I) {
      if (Live[I])
        continue;
      const StmtFacts &F = Facts[I];
      bool Fire = F.AlwaysLive;
      if (!Fire)
        for (int W : F.Writes)
          if (Rel[W]) {
            Fire = true;
            break;
          }
      if (!Fire)
        continue;
      Live[I] = 1;
      Changed = true;
      for (int R : F.Reads)
        if (!Rel[R])
          Rel[R] = 1;
    }
  }

  Out.SliceBasic = Facts.size();
  for (size_t I = 0; I < Facts.size(); ++I) {
    if (Live[I]) {
      ++Out.LiveBasic;
      if (Facts[I].IsBodyCall)
        Out.AnyLiveCall = true;
    } else {
      Out.LiveStmts[Facts[I].StmtId] = 0;
    }
  }
  return Out;
}

Relevance::Stats Relevance::stats() const {
  const baselines::AndersenSolver::Stats &S = Solver.stats();
  return {S.Nodes, S.Iterations, S.Pairs};
}

} // namespace demand
} // namespace mcpta
