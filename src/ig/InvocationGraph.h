//===- InvocationGraph.h - Invocation graphs --------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The invocation graph of Sec. 4 / Figure 2: an explicit tree of all
/// procedure invocation chains starting at main. Recursion is
/// approximated by matched (Recursive, Approximate) node pairs connected
/// by a special back edge; the Approximate leaf never evaluates the
/// function body, it consumes the Recursive ancestor's stored summary.
///
/// Each node carries the paper's per-context storage: memoized IN/OUT
/// points-to sets, the pending-input list of the recursion fixed point
/// (Figure 4), and the map information associating symbolic names with
/// the invisible caller variables they stand for (Sec. 4.1) — the
/// context-sensitive data later analyses reuse.
///
/// With function pointers (Sec. 5) the graph cannot be completed by a
/// textual pass: indirect call sites are left open at build time and
/// grown during points-to analysis via getOrCreateChild.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_IG_INVOCATIONGRAPH_H
#define MCPTA_IG_INVOCATIONGRAPH_H

#include "pointsto/MapInfo.h"
#include "pointsto/PointsToSet.h"
#include "simple/SimpleIR.h"
#include "support/Limits.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mcpta {
namespace pta {

/// One invocation-graph node: a function in a specific calling context.
class IGNode {
public:
  enum class Kind { Ordinary, Recursive, Approximate };

  const cfront::FunctionDecl *function() const { return F; }
  Kind kind() const { return K; }
  IGNode *parent() const { return Parent; }
  unsigned callSiteId() const { return CallSiteId; }
  const std::vector<IGNode *> &children() const { return Children; }

  /// For Approximate nodes: the matching Recursive ancestor.
  IGNode *recEdge() const { return RecEdge; }

  bool isApproximate() const { return K == Kind::Approximate; }
  bool isRecursive() const { return K == Kind::Recursive; }
  void markRecursive() { K = Kind::Recursive; }

  /// True if some ancestor (or this node) is \p Fn — recursion test.
  const IGNode *findAncestor(const cfront::FunctionDecl *Fn) const;

  unsigned depth() const;

  //===--------------------------------------------------------------------===//
  // Analysis storage (Figure 4)
  //===--------------------------------------------------------------------===//
  std::optional<PointsToSet> StoredInput;
  std::optional<PointsToSet> StoredOutput;
  std::vector<PointsToSet> PendingList;

  /// A memoized result depends on the summaries of the node's proper
  /// ancestor Recursive nodes (reached through Approximate back edges
  /// inside the subtree). MemoDeps records their versions at store
  /// time; the memo is reusable only while they are unchanged.
  /// SummaryVersion bumps whenever this (Recursive) node's stored
  /// summary changes during its fixed point.
  unsigned SummaryVersion = 0;
  std::vector<std::pair<const IGNode *, unsigned>> MemoDeps;
  /// Set once a Recursive node's Figure-4 fixed point has converged.
  bool FixpointDone = false;

  /// Number of times the analyzer evaluated this node's body (memo
  /// hits and seeded grafts do not count). Serialized into the result
  /// snapshot: the incremental engine only trusts a baseline node as a
  /// seed donor when it was evaluated exactly once, so its StoredInput
  /// is the one input its subtree state derives from.
  unsigned EvalCount = 0;

  /// The child for (CallSiteId, Callee) if one exists, else null.
  /// Exposed for the incremental engine's subtree grafting, which must
  /// overlay donor state onto eagerly-built direct children.
  IGNode *findChild(unsigned CallSiteId,
                    const cfront::FunctionDecl *Callee) const {
    auto It = childLowerBound(CallSiteId, Callee);
    return (It != ChildIndex.end() && It->CallSiteId == CallSiteId &&
            It->Callee == Callee)
               ? It->Child
               : nullptr;
  }

  /// Map information (Sec. 4.1): for each symbolic location id used
  /// inside this invocation, the ids of the caller locations (invisible
  /// variables) it represents in this context. Deterministically
  /// ordered (sorted by id); resolve ids via the run's LocationTable.
  MapInfoTable MapInfo;

  /// Renders the subtree, e.g. for Figure 2/7-style test expectations.
  std::string str(unsigned Indent = 0) const;

private:
  friend class InvocationGraph;
  IGNode(const cfront::FunctionDecl *F, IGNode *Parent, unsigned CallSiteId)
      : F(F), Parent(Parent), CallSiteId(CallSiteId) {}

  const cfront::FunctionDecl *F;
  Kind K = Kind::Ordinary;
  IGNode *Parent;
  unsigned CallSiteId;
  std::vector<IGNode *> Children;
  IGNode *RecEdge = nullptr;

  /// Flat (call site, callee) -> child index, sorted; the hot lookup on
  /// every re-visited context (ig.child_cache_hits).
  struct ChildKey {
    unsigned CallSiteId;
    const cfront::FunctionDecl *Callee;
    IGNode *Child;
  };
  std::vector<ChildKey> ChildIndex;

  std::vector<ChildKey>::const_iterator
  childLowerBound(unsigned Site, const cfront::FunctionDecl *Callee) const {
    return std::lower_bound(
        ChildIndex.begin(), ChildIndex.end(), std::make_pair(Site, Callee),
        [](const ChildKey &E,
           const std::pair<unsigned, const cfront::FunctionDecl *> &K) {
          if (E.CallSiteId != K.first)
            return E.CallSiteId < K.first;
          return E.Callee < K.second;
        });
  }
  void indexChild(unsigned Site, const cfront::FunctionDecl *Callee,
                  IGNode *Child) {
    auto It = childLowerBound(Site, Callee);
    ChildIndex.insert(ChildIndex.begin() + (It - ChildIndex.begin()),
                      ChildKey{Site, Callee, Child});
  }
};

/// The whole invocation graph. Owns its nodes.
class InvocationGraph {
public:
  /// Builds the initial graph from direct calls only, rooted at `main`,
  /// leaving indirect call sites open. Returns null if the program has
  /// no defined main.
  ///
  /// When \p Meter is non-null the build is resource-governed: every
  /// node created is reported through BudgetMeter::noteIGNode, and once
  /// the node cap (or the deadline) trips, eager direct-call expansion
  /// stops — the remaining subtrees are grown lazily by
  /// getOrCreateChild, which then hands out shared canonical
  /// per-function nodes instead of per-context ones.
  static std::unique_ptr<InvocationGraph>
  build(const simple::Program &Prog, support::BudgetMeter *Meter = nullptr);

  IGNode *root() const { return Root; }
  const simple::Program &program() const { return *Prog; }

  /// Finds or creates the child of \p Parent for calling \p Callee from
  /// call site \p CallSiteId. If \p Callee appears on the ancestor
  /// chain, the child is an Approximate node wired to that (now
  /// Recursive) ancestor; otherwise an Ordinary node whose direct-call
  /// subtree is expanded eagerly. Idempotent.
  ///
  /// Once the governing meter has tripped, new contexts are no longer
  /// materialized: the call returns one shared canonical node per
  /// callee (parented at the root, never eagerly expanded). The
  /// analyzer evaluates such nodes context-insensitively, so sharing
  /// them across call sites is sound — it merges contexts, exactly the
  /// degradation we opted into.
  IGNode *getOrCreateChild(IGNode *Parent, unsigned CallSiteId,
                           const cfront::FunctionDecl *Callee);

  /// Memo-table seeding API (incremental re-analysis): creates a child
  /// of \p Parent replicating a baseline node — kind and recursion back
  /// edge are taken from the donor, no recursion detection runs, and
  /// the child's direct calls are NOT eagerly expanded (the graft walk
  /// replicates the donor subtree instead). The child is registered in
  /// the parent's (call site, callee) index so later lookups find it.
  /// Callers are responsible for structural validity (the donor subtree
  /// must be what a fresh evaluation would have built).
  IGNode *graftChild(IGNode *Parent, unsigned CallSiteId,
                     const cfront::FunctionDecl *Callee, IGNode::Kind K,
                     IGNode *RecEdge);

  //===--------------------------------------------------------------------===//
  // Statistics (Table 6)
  //===--------------------------------------------------------------------===//

  /// Growth counters accumulated while the graph is built and grown
  /// (telemetry: ig.nodes_created, ig.child_cache_hits). A cache hit is
  /// a getOrCreateChild call answered from the child index — i.e. a
  /// re-visited (call site, callee) context.
  struct BuildCounters {
    uint64_t NodesCreated = 0;
    uint64_t ChildCacheHits = 0;
    uint64_t RecursivePromotions = 0;
    /// getOrCreateChild calls answered with a shared canonical node
    /// because the node budget (or deadline) had tripped.
    uint64_t CanonicalFallbacks = 0;
  };
  const BuildCounters &buildCounters() const { return Ctrs; }

  unsigned numNodes() const;
  unsigned numRecursive() const;
  unsigned numApproximate() const;
  /// Distinct functions with at least one node.
  unsigned numFunctionsCovered() const;

  template <typename Fn> void forEachNode(Fn F) const {
    forEachNodeImpl(Root, F);
  }

  /// Every node in preorder: a parent before its children, child order
  /// preserved. This is the canonical linearization the serialized
  /// result format (serve::Serialize, mcpta-result-v3) indexes nodes
  /// by — every ancestor, including a recursion back-edge target,
  /// precedes the nodes that reference it.
  std::vector<const IGNode *> preorder() const;

  std::string str() const { return Root ? Root->str() : "<empty>"; }

private:
  InvocationGraph() = default;

  IGNode *makeNode(const cfront::FunctionDecl *F, IGNode *Parent,
                   unsigned CallSiteId);
  void expandDirectCalls(IGNode *Node);

  template <typename Fn> void forEachNodeImpl(IGNode *N, Fn &F) const {
    if (!N)
      return;
    F(N);
    for (IGNode *C : N->children())
      forEachNodeImpl(C, F);
  }

  const simple::Program *Prog = nullptr;
  IGNode *Root = nullptr;
  std::vector<std::unique_ptr<IGNode>> Nodes;
  BuildCounters Ctrs;
  /// Resource governor; null for ungoverned runs.
  support::BudgetMeter *Meter = nullptr;
  /// Shared per-function nodes handed out after the budget tripped.
  std::map<const cfront::FunctionDecl *, IGNode *> CanonicalNodes;
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_IG_INVOCATIONGRAPH_H
