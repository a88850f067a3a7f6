//===- InvocationGraph.cpp - Invocation graphs -------------------------------===//

#include "ig/InvocationGraph.h"

#include <cassert>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;
using cf::FunctionDecl;

const IGNode *IGNode::findAncestor(const FunctionDecl *Fn) const {
  for (const IGNode *N = Parent; N; N = N->Parent)
    if (N->F == Fn)
      return N;
  return nullptr;
}

unsigned IGNode::depth() const {
  unsigned D = 0;
  for (const IGNode *N = Parent; N; N = N->Parent)
    ++D;
  return D;
}

std::string IGNode::str(unsigned Indent) const {
  std::string Out(Indent * 2, ' ');
  Out += F ? F->name() : "<extern>";
  if (K == Kind::Recursive)
    Out += " [R]";
  else if (K == Kind::Approximate)
    Out += " [A]";
  Out += "\n";
  for (const IGNode *C : Children)
    Out += C->str(Indent + 1);
  return Out;
}

IGNode *InvocationGraph::makeNode(const FunctionDecl *F, IGNode *Parent,
                                  unsigned CallSiteId) {
  Nodes.push_back(std::unique_ptr<IGNode>(new IGNode(F, Parent, CallSiteId)));
  ++Ctrs.NodesCreated;
  if (Meter)
    Meter->noteIGNode(Ctrs.NodesCreated);
  return Nodes.back().get();
}

std::unique_ptr<InvocationGraph>
InvocationGraph::build(const Program &Prog, support::BudgetMeter *Meter) {
  const FunctionDecl *Main = Prog.unit().findFunction("main");
  if (!Main || !Prog.findFunction(Main))
    return nullptr;

  std::unique_ptr<InvocationGraph> IG(new InvocationGraph());
  IG->Prog = &Prog;
  IG->Meter = Meter;
  IG->Root = IG->makeNode(Main, nullptr, /*CallSiteId=*/~0u);
  IG->expandDirectCalls(IG->Root);
  return IG;
}

void InvocationGraph::expandDirectCalls(IGNode *Node) {
  // Governed build: once the node cap or deadline trips, stop the eager
  // per-context expansion. Unexpanded calls are grown lazily during the
  // analysis, which by then shares canonical nodes (see below).
  if (Meter && Meter->tripped())
    return;
  const FunctionIR *FIR = Prog->findFunction(Node->F);
  if (!FIR)
    return; // extern function: no body to expand
  for (const CallInfo *CI : FIR->Calls) {
    if (CI->isIndirect())
      continue; // left open; grown during points-to analysis (Sec. 5)
    if (!Prog->findFunction(CI->Callee))
      continue; // extern library function: modeled, not analyzed
    getOrCreateChild(Node, CI->CallSiteId, CI->Callee);
  }
}

IGNode *InvocationGraph::getOrCreateChild(IGNode *Parent, unsigned CallSiteId,
                                          const FunctionDecl *Callee) {
  if (IGNode *Hit = Parent->findChild(CallSiteId, Callee)) {
    ++Ctrs.ChildCacheHits;
    return Hit;
  }

  // Budget tripped: no new contexts. Hand out one shared canonical
  // node per callee; the analyzer evaluates it with merged summaries,
  // so sharing across call sites only merges contexts (sound).
  if (Meter && Meter->tripped()) {
    ++Ctrs.CanonicalFallbacks;
    IGNode *&Canon = CanonicalNodes[Callee];
    if (!Canon) {
      Canon = makeNode(Callee, Root, CallSiteId);
      Root->Children.push_back(Canon);
    }
    return Canon;
  }

  IGNode *Child = makeNode(Callee, Parent, CallSiteId);
  Parent->Children.push_back(Child);
  Parent->indexChild(CallSiteId, Callee, Child);

  // Recursion: the callee already appears on the invocation chain.
  // The new node is Approximate; its matching ancestor becomes
  // Recursive and the pair is connected by a back edge.
  IGNode *Anc = const_cast<IGNode *>(
      Parent->F == Callee ? Parent : Parent->findAncestor(Callee));
  if (Anc) {
    Child->K = IGNode::Kind::Approximate;
    Child->RecEdge = Anc;
    if (!Anc->isRecursive())
      ++Ctrs.RecursivePromotions;
    Anc->markRecursive();
    return Child;
  }
  expandDirectCalls(Child);
  return Child;
}

IGNode *InvocationGraph::graftChild(IGNode *Parent, unsigned CallSiteId,
                                    const FunctionDecl *Callee,
                                    IGNode::Kind K, IGNode *RecEdge) {
  IGNode *Child = makeNode(Callee, Parent, CallSiteId);
  Parent->Children.push_back(Child);
  Parent->indexChild(CallSiteId, Callee, Child);
  Child->K = K;
  Child->RecEdge = RecEdge;
  return Child;
}

std::vector<const IGNode *> InvocationGraph::preorder() const {
  std::vector<const IGNode *> Out;
  Out.reserve(Nodes.size());
  forEachNode([&Out](const IGNode *N) { Out.push_back(N); });
  return Out;
}

unsigned InvocationGraph::numNodes() const {
  unsigned N = 0;
  forEachNode([&N](const IGNode *) { ++N; });
  return N;
}

unsigned InvocationGraph::numRecursive() const {
  unsigned N = 0;
  forEachNode([&N](const IGNode *Node) {
    if (Node->isRecursive())
      ++N;
  });
  return N;
}

unsigned InvocationGraph::numApproximate() const {
  unsigned N = 0;
  forEachNode([&N](const IGNode *Node) {
    if (Node->isApproximate())
      ++N;
  });
  return N;
}

unsigned InvocationGraph::numFunctionsCovered() const {
  std::map<const FunctionDecl *, bool> Seen;
  forEachNode([&Seen](const IGNode *Node) { Seen[Node->function()] = true; });
  return static_cast<unsigned>(Seen.size());
}
