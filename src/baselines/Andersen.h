//===- Andersen.h - flow-insensitive inclusion solver -----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one flow-insensitive points-to solver: a classic
/// Andersen-style inclusion analysis over SIMPLE. One solution for the
/// whole program, no kill/definite information, field- and
/// context-insensitive (locations collapse to their root entities).
/// Indirect calls are resolved on the fly from the growing solution,
/// like Figure 5 but without contexts.
///
/// Nodes are dense ids: the summary heap (always id 0), every variable
/// (globals, parameters, locals, simplifier temporaries), one
/// return-value node per defined function, one node per function whose
/// address is taken and one per string literal. A dereferencing store
/// of a dereferenced value gets one hidden temporary node, which has no
/// name and is left out of every count. Constraints are solved by a
/// worklist: a node is revisited only when its set or its constraints
/// grow.
///
/// Two clients read the solution:
///  - the flow-insensitivity ablation (AndersenAnalysis::run, Ablation B
///    in DESIGN.md), which projects it onto entity names and contrasts
///    it with what flow-sensitivity and the D/P split buy;
///  - the demand engine's relevance pass (demand/Relevance.h), which
///    needs an over-approximation of the precise analysis. Extern calls
///    therefore follow the precise analyzer's model
///    (pta::externCallModel): only a pointer-bearing left-hand side
///    changes; a ReturnsArg0 callee yields arg0's value, and any other
///    callee yields heap when its return type is pointer-bearing.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_BASELINES_ANDERSEN_H
#define MCPTA_BASELINES_ANDERSEN_H

#include "simple/SimpleIR.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcpta {
namespace baselines {

/// Generates the inclusion constraints of a program and solves them.
class AndersenSolver {
public:
  using NodeId = unsigned;
  static constexpr NodeId NoNode = ~0u;

  /// Solves \p Prog; the program must outlive the solver.
  explicit AndersenSolver(const simple::Program &Prog);

  /// Node of a variable; NoNode for variables the program never
  /// declares or mentions.
  NodeId node(const cfront::VarDecl *V) const;
  NodeId heap() const { return 0; }
  /// Return-value node of a defined function; NoNode otherwise.
  NodeId retval(const cfront::FunctionDecl *F) const;
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }

  /// May-point-to set of a node, sorted by id.
  const std::vector<NodeId> &pts(NodeId N) const { return Pts[N]; }
  /// The targets the value of \p Op may hold under the solution: the
  /// right-hand-side rule the constraints are built from.
  std::vector<NodeId> valueOf(const simple::Operand &Op) const;

  /// Entity name of a node: `fn::var` for locals and parameters, the
  /// plain name for globals and functions, "heap", "str$N",
  /// "retval$fn"; empty for hidden temporaries.
  std::string name(NodeId N) const;

  struct Stats {
    uint64_t Nodes = 0;      ///< named nodes
    uint64_t Iterations = 0; ///< worklist pops
    uint64_t Pairs = 0;      ///< points-to facts over named nodes
  };
  const Stats &stats() const { return St; }

private:
  struct Node {
    enum class Kind { Heap, Var, Retval, Function, String, Temp };
    Kind K = Kind::Var;
    const cfront::VarDecl *Var = nullptr;
    const cfront::FunctionDecl *Fn = nullptr;
    unsigned StringId = 0;
  };
  class Builder;

  std::vector<Node> Nodes;
  std::vector<std::vector<NodeId>> Pts;
  std::unordered_map<const cfront::VarDecl *, NodeId> VarIds;
  std::unordered_map<const cfront::FunctionDecl *, NodeId> RetIds;
  std::unordered_map<const cfront::FunctionDecl *, NodeId> FnIds;
  std::unordered_map<unsigned, NodeId> StringIds;
  Stats St;
};

/// Result of the Andersen baseline: the solver's solution projected
/// onto entity names.
struct AndersenResult {
  /// Points-to sets keyed by entity name (deterministic).
  using PtsMap = std::map<std::string, std::set<std::string>>;

  PtsMap Solution;
  const std::set<std::string> &pointsTo(const std::string &Var) const;

  /// Average number of targets of the dereferenced pointer over all
  /// indirect references in function bodies.
  double AvgIndirectTargets = 0;
  unsigned IndirectRefs = 0;
  /// Worklist pops of the solver.
  unsigned SolverIterations = 0;
  /// Total pairs in the solution.
  unsigned long long TotalPairs = 0;
};

/// Runs the baseline over a simplified program.
class AndersenAnalysis {
public:
  static AndersenResult run(const simple::Program &Prog);
};

} // namespace baselines
} // namespace mcpta

#endif // MCPTA_BASELINES_ANDERSEN_H
