//===- Andersen.cpp - flow-insensitive inclusion solver -----------------------===//

#include "baselines/Andersen.h"

#include "pointsto/Analyzer.h"

#include <algorithm>
#include <deque>
#include <optional>

using namespace mcpta;
using namespace mcpta::baselines;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;

using NodeId = AndersenSolver::NodeId;

namespace {

/// Inserts \p X into the sorted vector \p V; true when it was new.
bool insertSorted(std::vector<NodeId> &V, NodeId X) {
  auto It = std::lower_bound(V.begin(), V.end(), X);
  if (It != V.end() && *It == X)
    return false;
  V.insert(It, X);
  return true;
}

/// Dst |= Src over sorted vectors; true when Dst grew.
bool unionInto(std::vector<NodeId> &Dst, const std::vector<NodeId> &Src) {
  if (std::includes(Dst.begin(), Dst.end(), Src.begin(), Src.end()))
    return false;
  std::vector<NodeId> Out;
  Out.reserve(Dst.size() + Src.size());
  std::set_union(Dst.begin(), Dst.end(), Src.begin(), Src.end(),
                 std::back_inserter(Out));
  Dst.swap(Out);
  return true;
}

/// Where a right-hand side's targets come from: the address of a node,
/// a copy of a node's set, or a load through a node.
struct Source {
  enum class Kind { Addr, Copy, Load };
  Kind K;
  NodeId N;
};

/// The value source of a reference (fields and indices collapse onto
/// the base variable).
Source refSource(const Reference &R, NodeId Base) {
  if (R.AddrOf) // &(*p).f and &p[i] are an offset of p's value.
    return {R.Deref ? Source::Kind::Copy : Source::Kind::Addr, Base};
  return {R.Deref ? Source::Kind::Load : Source::Kind::Copy, Base};
}

} // namespace

/// Constraint generation and the worklist. The constraint graph lives
/// only while the solver is being built; the solution stays in the
/// AndersenSolver.
class AndersenSolver::Builder {
public:
  Builder(AndersenSolver &S, const Program &Prog) : S(S), Prog(Prog) {}

  void run();

private:
  /// A constraint attached to pointer node P, applied to each target T
  /// of P: Load `Other ⊇ T`, Store `T ⊇ Other`, StoreAddr `T ∋ Other`.
  struct Complex {
    enum class Kind { Load, Store, StoreAddr };
    Kind K;
    NodeId Other;
  };
  /// An indirect call site and the callees bound to it so far.
  struct Site {
    const CallInfo *CI;
    const Reference *Lhs;
    std::vector<NodeId> Bound;
  };

  NodeId newNode(Node N);
  NodeId var(const cf::VarDecl *V);
  NodeId function(const cf::FunctionDecl *F);
  NodeId string(unsigned Id);

  std::optional<Source> value(const Operand &O);
  /// Dst ⊇ V.
  void flow(NodeId Dst, Source V);
  /// Lhs ⊇ V, storing through Lhs when it dereferences.
  void assign(const Reference &Lhs, Source V);
  void assignOperand(const Reference &Lhs, const Operand &O) {
    if (std::optional<Source> V = value(O))
      assign(Lhs, *V);
  }

  void genStmt(const Stmt *St, const cf::FunctionDecl *Owner);
  void genCall(const CallInfo &CI, const Reference *Lhs);
  void bindCall(const CallInfo &CI, const cf::FunctionDecl *F,
                const Reference *Lhs);

  void push(NodeId N) {
    if (!Queued[N]) {
      Queued[N] = 1;
      Work.push_back(N);
    }
  }
  void addPts(NodeId N, NodeId T) {
    if (insertSorted(S.Pts[N], T))
      push(N);
  }
  void addEdge(NodeId From, NodeId To) {
    if (From != To && insertSorted(Succ[From], To) &&
        unionInto(S.Pts[To], S.Pts[From]))
      push(To);
  }
  void addComplex(NodeId P, Complex C) {
    Cx[P].push_back(C);
    if (!S.Pts[P].empty())
      push(P);
  }
  void process(NodeId N);

  AndersenSolver &S;
  const Program &Prog;
  /// Copy edges: pts(To) ⊇ pts(From) for every To in Succ[From].
  std::vector<std::vector<NodeId>> Succ;
  std::vector<std::vector<Complex>> Cx;
  std::vector<Site> Sites;
  /// Indirect call sites by the node of their function pointer.
  std::vector<std::vector<unsigned>> SitesOf;
  std::deque<NodeId> Work;
  std::vector<uint8_t> Queued;
};

NodeId AndersenSolver::Builder::newNode(Node N) {
  S.Nodes.push_back(N);
  S.Pts.emplace_back();
  Succ.emplace_back();
  Cx.emplace_back();
  SitesOf.emplace_back();
  Queued.push_back(0);
  return static_cast<NodeId>(S.Nodes.size() - 1);
}

NodeId AndersenSolver::Builder::var(const cf::VarDecl *V) {
  auto [It, New] = S.VarIds.try_emplace(V, 0);
  if (New)
    It->second = newNode({Node::Kind::Var, V, nullptr, 0});
  return It->second;
}

NodeId AndersenSolver::Builder::function(const cf::FunctionDecl *F) {
  auto [It, New] = S.FnIds.try_emplace(F, 0);
  if (New)
    It->second = newNode({Node::Kind::Function, nullptr, F, 0});
  return It->second;
}

NodeId AndersenSolver::Builder::string(unsigned Id) {
  auto [It, New] = S.StringIds.try_emplace(Id, 0);
  if (New)
    It->second = newNode({Node::Kind::String, nullptr, nullptr, Id});
  return It->second;
}

std::optional<Source> AndersenSolver::Builder::value(const Operand &O) {
  switch (O.K) {
  case Operand::Kind::Ref:
    if (!O.Ref.Base)
      return std::nullopt;
    return refSource(O.Ref, var(O.Ref.Base));
  case Operand::Kind::FunctionAddr:
    return Source{Source::Kind::Addr, function(O.Fn)};
  case Operand::Kind::StringConst:
    return Source{Source::Kind::Addr, string(O.StringId)};
  default:
    return std::nullopt; // constants and NULL carry no targets
  }
}

void AndersenSolver::Builder::flow(NodeId Dst, Source V) {
  switch (V.K) {
  case Source::Kind::Addr:
    addPts(Dst, V.N);
    return;
  case Source::Kind::Copy:
    addEdge(V.N, Dst);
    return;
  case Source::Kind::Load:
    addComplex(V.N, {Complex::Kind::Load, Dst});
    return;
  }
}

void AndersenSolver::Builder::assign(const Reference &Lhs, Source V) {
  if (!Lhs.Base)
    return;
  NodeId Base = var(Lhs.Base);
  if (!Lhs.Deref) {
    flow(Base, V);
    return;
  }
  switch (V.K) {
  case Source::Kind::Addr:
    addComplex(Base, {Complex::Kind::StoreAddr, V.N});
    return;
  case Source::Kind::Copy:
    addComplex(Base, {Complex::Kind::Store, V.N});
    return;
  case Source::Kind::Load: {
    // A store of a loaded value goes through one hidden temporary.
    NodeId T = newNode({Node::Kind::Temp, nullptr, nullptr, 0});
    flow(T, V);
    addComplex(Base, {Complex::Kind::Store, T});
    return;
  }
  }
}

void AndersenSolver::Builder::genStmt(const Stmt *St,
                                      const cf::FunctionDecl *Owner) {
  if (const auto *A = dynCastStmt<AssignStmt>(St)) {
    switch (A->RK) {
    case AssignStmt::RhsKind::Operand:
      assignOperand(A->Lhs, A->A);
      return;
    case AssignStmt::RhsKind::Binary:
      assignOperand(A->Lhs, A->A);
      assignOperand(A->Lhs, A->B);
      return;
    case AssignStmt::RhsKind::Unary:
      return; // arithmetic and logical results carry no targets
    case AssignStmt::RhsKind::Alloc:
      assign(A->Lhs, {Source::Kind::Addr, S.heap()});
      return;
    case AssignStmt::RhsKind::Call:
      genCall(A->Call, &A->Lhs);
      return;
    }
    return;
  }
  if (const auto *C = dynCastStmt<CallStmt>(St)) {
    genCall(C->Call, nullptr);
    return;
  }
  if (const auto *R = dynCastStmt<ReturnStmt>(St))
    if (R->Value && Owner)
      if (std::optional<Source> V = value(*R->Value))
        flow(S.retval(Owner), *V);
}

void AndersenSolver::Builder::genCall(const CallInfo &CI,
                                      const Reference *Lhs) {
  if (!CI.isIndirect()) {
    bindCall(CI, CI.Callee, Lhs);
    return;
  }
  if (!CI.FnPtr.Base)
    return;
  NodeId Fp = var(CI.FnPtr.Base);
  SitesOf[Fp].push_back(static_cast<unsigned>(Sites.size()));
  Sites.push_back({&CI, Lhs, {}});
  if (!S.Pts[Fp].empty())
    push(Fp);
}

void AndersenSolver::Builder::bindCall(const CallInfo &CI,
                                       const cf::FunctionDecl *F,
                                       const Reference *Lhs) {
  if (!Prog.findFunction(F)) {
    // Extern: the precise analyzer's model (Analyzer's applyExtern).
    if (!Lhs || !Lhs->Ty || !Lhs->Ty->isPointerBearing())
      return;
    if (pta::externCallModel(F->name()) == pta::ExternModel::ReturnsArg0 &&
        !CI.Args.empty())
      assignOperand(*Lhs, CI.Args[0]);
    else if (F->returnType()->isPointerBearing())
      assign(*Lhs, {Source::Kind::Addr, S.heap()});
    return;
  }
  const std::vector<cf::VarDecl *> &Params = F->params();
  for (size_t I = 0; I < CI.Args.size() && I < Params.size(); ++I)
    if (std::optional<Source> V = value(CI.Args[I]))
      flow(var(Params[I]), *V);
  if (Lhs)
    assign(*Lhs, {Source::Kind::Copy, S.retval(F)});
}

void AndersenSolver::Builder::process(NodeId N) {
  if (!Cx[N].empty() || !SitesOf[N].empty()) {
    // A copy: the rules below may grow pts(N) itself, and binding a
    // call may add nodes.
    const std::vector<NodeId> Targets = S.Pts[N];
    for (size_t I = 0; I < Cx[N].size(); ++I) {
      const Complex C = Cx[N][I];
      for (NodeId T : Targets) {
        if (S.Nodes[T].K == Node::Kind::Function)
          continue; // functions hold no pointers
        switch (C.K) {
        case Complex::Kind::Load:
          addEdge(T, C.Other);
          break;
        case Complex::Kind::Store:
          addEdge(C.Other, T);
          break;
        case Complex::Kind::StoreAddr:
          addPts(T, C.Other);
          break;
        }
      }
    }
    for (size_t I = 0; I < SitesOf[N].size(); ++I) {
      const unsigned Idx = SitesOf[N][I];
      for (NodeId T : Targets)
        if (S.Nodes[T].K == Node::Kind::Function &&
            insertSorted(Sites[Idx].Bound, T))
          bindCall(*Sites[Idx].CI, S.Nodes[T].Fn, Sites[Idx].Lhs);
    }
  }
  for (size_t I = 0; I < Succ[N].size(); ++I) {
    const NodeId To = Succ[N][I];
    if (unionInto(S.Pts[To], S.Pts[N]))
      push(To);
  }
}

void AndersenSolver::Builder::run() {
  // Node 0 is the heap; then every variable the program declares and
  // one return-value node per defined function, so that node() answers
  // for variables no statement mentions.
  newNode({Node::Kind::Heap, nullptr, nullptr, 0});
  for (const cf::VarDecl *G : Prog.globals())
    var(G);
  for (const FunctionIR &F : Prog.functions()) {
    for (const cf::VarDecl *P : F.Decl->params())
      var(P);
    for (const cf::VarDecl *L : F.Locals)
      var(L);
    S.RetIds.try_emplace(F.Decl,
                         newNode({Node::Kind::Retval, nullptr, F.Decl, 0}));
  }

  // Whole-program and flow-insensitive: reachability is ignored.
  for (const FunctionIR &F : Prog.functions())
    forEachStmt(F.Body, [&](const Stmt *St) { genStmt(St, F.Decl); });
  forEachStmt(Prog.globalInit(),
              [&](const Stmt *St) { genStmt(St, nullptr); });

  while (!Work.empty()) {
    NodeId N = Work.front();
    Work.pop_front();
    Queued[N] = 0;
    ++S.St.Iterations;
    process(N);
  }

  for (NodeId N = 0; N < S.Nodes.size(); ++N)
    if (S.Nodes[N].K != Node::Kind::Temp) {
      ++S.St.Nodes;
      S.St.Pairs += S.Pts[N].size();
    }
}

AndersenSolver::AndersenSolver(const Program &Prog) {
  Builder(*this, Prog).run();
}

NodeId AndersenSolver::node(const cf::VarDecl *V) const {
  auto It = VarIds.find(V);
  return It == VarIds.end() ? NoNode : It->second;
}

NodeId AndersenSolver::retval(const cf::FunctionDecl *F) const {
  auto It = RetIds.find(F);
  return It == RetIds.end() ? NoNode : It->second;
}

std::vector<NodeId> AndersenSolver::valueOf(const Operand &Op) const {
  std::vector<NodeId> Out;
  switch (Op.K) {
  case Operand::Kind::Ref: {
    NodeId B = Op.Ref.Base ? node(Op.Ref.Base) : NoNode;
    if (B == NoNode)
      return Out;
    Source V = refSource(Op.Ref, B);
    if (V.K == Source::Kind::Addr)
      Out.push_back(B);
    else if (V.K == Source::Kind::Copy)
      Out = Pts[B];
    else
      for (NodeId T : Pts[B])
        if (Nodes[T].K != Node::Kind::Function)
          unionInto(Out, Pts[T]);
    return Out;
  }
  case Operand::Kind::FunctionAddr: {
    auto It = FnIds.find(Op.Fn);
    if (It != FnIds.end())
      Out.push_back(It->second);
    return Out;
  }
  case Operand::Kind::StringConst: {
    auto It = StringIds.find(Op.StringId);
    if (It != StringIds.end())
      Out.push_back(It->second);
    return Out;
  }
  default:
    return Out;
  }
}

std::string AndersenSolver::name(NodeId N) const {
  const Node &Nd = Nodes[N];
  switch (Nd.K) {
  case Node::Kind::Heap:
    return "heap";
  case Node::Kind::Var:
    return (Nd.Var->owner() ? Nd.Var->owner()->name() + "::"
                            : std::string()) +
           Nd.Var->name();
  case Node::Kind::Retval:
    return "retval$" + Nd.Fn->name();
  case Node::Kind::Function:
    return Nd.Fn->name();
  case Node::Kind::String:
    return "str$" + std::to_string(Nd.StringId);
  case Node::Kind::Temp:
    return "";
  }
  return "";
}

const std::set<std::string> &
AndersenResult::pointsTo(const std::string &Var) const {
  static const std::set<std::string> Empty;
  auto It = Solution.find(Var);
  return It == Solution.end() ? Empty : It->second;
}

AndersenResult AndersenAnalysis::run(const Program &Prog) {
  AndersenSolver S(Prog);
  AndersenResult Res;
  for (NodeId N = 0; N < S.numNodes(); ++N) {
    std::string Name = S.name(N);
    if (S.pts(N).empty() || Name.empty())
      continue;
    std::set<std::string> &Set = Res.Solution[Name];
    for (NodeId T : S.pts(N))
      Set.insert(S.name(T));
  }
  Res.TotalPairs = S.stats().Pairs;
  Res.SolverIterations = static_cast<unsigned>(S.stats().Iterations);

  unsigned long long TargetSum = 0;
  auto Count = [&](const Reference &R) {
    if (!R.isIndirect())
      return;
    ++Res.IndirectRefs;
    if (NodeId B = S.node(R.Base); B != AndersenSolver::NoNode)
      TargetSum += S.pts(B).size();
  };
  for (const FunctionIR &F : Prog.functions())
    forEachStmt(F.Body, [&](const Stmt *St) {
      const auto *A = dynCastStmt<AssignStmt>(St);
      if (!A)
        return;
      Count(A->Lhs);
      if (A->A.isRef())
        Count(A->A.Ref);
      if (A->RK == AssignStmt::RhsKind::Binary && A->B.isRef())
        Count(A->B.Ref);
    });
  Res.AvgIndirectTargets =
      Res.IndirectRefs ? static_cast<double>(TargetSum) / Res.IndirectRefs : 0;
  return Res;
}
