//===- Relevance.h - Query-relevance pre-pass for demand queries -*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand engine's relevance pre-pass: the liveness pass over the
/// shared flow-insensitive, field-insensitive, root-granularity
/// points-to solution (baselines::AndersenSolver), used to decide which
/// statements of main's body (and the global initializers) can affect a
/// query's relevant roots.
///
/// Roots are the solver's nodes: whole variables (every VarDecl:
/// globals, parameters, locals, simplifier temporaries), one summary
/// heap root, one return-value root per function, function and
/// string-literal roots; access paths collapse onto their root. Because
/// the solution over-approximates the precise analysis — its extern
/// rule is the precise analyzer's (pta::externCallModel) — a statement
/// whose conservative write set misses every relevant root provably
/// cannot change any (x, y, D|P) triple whose source is rooted at a
/// relevant root, so the precise analyzer may treat it as an identity
/// transfer (Analyzer::Options::LiveStmts). docs/DEMAND.md carries the
/// full exactness argument, including why calls are all-or-nothing: a
/// live call pulls everything the map() phase would mirror into the
/// callee into the relevant set, so a skipped call is exactly one whose
/// entire conservative mod set is disjoint from it.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_DEMAND_RELEVANCE_H
#define MCPTA_DEMAND_RELEVANCE_H

#include "baselines/Andersen.h"

#include <cstdint>
#include <set>
#include <vector>

namespace mcpta {
namespace demand {

class Relevance {
public:
  /// Solves \p Prog and precomputes the per-statement liveness facts.
  /// The program must outlive this object. Callers gate
  /// function-pointer programs out before relying on the liveness pass
  /// (DemandQuery's `fnptr` fallback).
  explicit Relevance(const simple::Program &Prog);
  ~Relevance(); // out-of-line: Facts holds an incomplete type here

  /// Root id of a variable; -1 for variables the program never
  /// declares or mentions.
  int rootOf(const cfront::VarDecl *V) const;
  int heapRoot() const { return static_cast<int>(Solver.heap()); }
  unsigned numRoots() const { return Solver.numNodes(); }

  /// Flow-insensitive may-point-to set of a root (root granularity).
  const std::vector<unsigned> &pts(int Root) const {
    return Solver.pts(static_cast<unsigned>(Root));
  }

  /// Transitive points-to closure of \p Seeds (as a root bitmask).
  std::vector<uint8_t> reachClosure(const std::vector<int> &Seeds) const;

  /// Result of the per-query liveness pass over main + globalInit.
  struct Liveness {
    /// Indexed by simple::Stmt::id(); 1 = analyze, 0 = identity
    /// transfer. Statements outside main's body and the global
    /// initializer block are always 1.
    std::vector<uint8_t> LiveStmts;
    /// Basic statements in the pruned region (main + globalInit) and
    /// how many of them stayed live.
    size_t SliceBasic = 0;
    size_t LiveBasic = 0;
    /// True when some non-extern call in main stayed live (the slice
    /// then descends into the invocation graph under it).
    bool AnyLiveCall = false;
  };

  /// Computes the live-statement filter for a query whose answer is the
  /// projection of the result onto triples rooted at \p SeedRoots
  /// (root ids; unknown ids ignored). Fixpoint: a statement is live iff
  /// its conservative write set meets the relevant set, and a live
  /// statement's reads join the relevant set.
  Liveness liveness(const std::vector<int> &SeedRoots) const;

  /// Statistics of the relevance build, for telemetry.
  struct Stats {
    uint64_t Roots = 0;  ///< named solver nodes
    uint64_t Passes = 0; ///< worklist iterations of the solver
    uint64_t Edges = 0;  ///< total points-to facts in the solution
  };
  Stats stats() const;

private:
  struct StmtFacts;

  const simple::Program &Prog;
  baselines::AndersenSolver Solver;
  /// Liveness facts for every basic statement of the pruned region
  /// (main's body + globalInit), precomputed against the solution at
  /// construction time.
  std::vector<StmtFacts> Facts;
  /// Reach closure of {pointer-bearing globals, heap}: part of every
  /// non-extern call's conservative mod set.
  std::set<int> GlobalReach;
};

} // namespace demand
} // namespace mcpta

#endif // MCPTA_DEMAND_RELEVANCE_H
