//===- LRLocations.h - Table 1: L- and R-location sets ----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes L-location and R-location sets for SIMPLE references and
/// operands relative to a points-to set, implementing Table 1 of the
/// paper generalized to arbitrary field/index paths.
///
/// An L-location names the stack location a reference *is*; an
/// R-location names the stack locations a reference's *value* points to.
/// Both come with a definiteness flag. Deviation from the literal table
/// (see DESIGN.md): L-locations that are summary locations (a_tail,
/// heap) are demoted to possible so they are never strong-update
/// targets.
///
/// Every query writes into a caller-owned buffer, which it clears
/// first, and normalizeLocDefs works in place. A caller that keeps its
/// buffers from one statement to the next evaluates without allocating
/// once their capacity has grown — this runs on every statement visit
/// of the analysis.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_LRLOCATIONS_H
#define MCPTA_POINTSTO_LRLOCATIONS_H

#include "pointsto/PointsToSet.h"
#include "simple/SimpleIR.h"

#include <vector>

namespace mcpta {
namespace pta {

/// Evaluates references/operands of one function body against points-to
/// sets. Apart from the location table it interns into, it keeps only
/// two scratch buffers for the multi-hop rules, so an evaluator serves
/// one analysis thread.
class LREvaluator {
public:
  explicit LREvaluator(LocationTable &Locs) : Locs(Locs) {}

  LocationTable &locations() { return Locs; }

  /// The set of abstract locations a reference designates (before the
  /// final dereference-or-address decision); the common core of Table 1.
  /// For `*p`-style references this consults S. Each query below
  /// replaces the contents of \p Out with its result.
  void refLocations(const simple::Reference &Ref, const PointsToSet &S,
                    std::vector<LocDef> &Out);

  /// L-location set of an assignable reference. Summary locations are
  /// demoted to possible.
  void lvalLocations(const simple::Reference &Ref, const PointsToSet &S,
                     std::vector<LocDef> &Out);

  /// R-location set of a reference used as a value.
  void rvalLocations(const simple::Reference &Ref, const PointsToSet &S,
                     std::vector<LocDef> &Out);

  /// R-location set of an operand (constants, NULL, strings, function
  /// addresses, references).
  void operandRLocations(const simple::Operand &Op, const PointsToSet &S,
                         std::vector<LocDef> &Out);

  /// R-location set of `a op b` for pointer-valued results (pointer
  /// arithmetic): the pointer operand's targets, index-shifted
  /// conservatively while staying within the pointed-to object (the
  /// paper's pointer-arithmetic flag, setting (1)).
  void binaryRLocations(const simple::Operand &A, cfront::BinaryOp Op,
                        const simple::Operand &B, const PointsToSet &S,
                        std::vector<LocDef> &Out);

  /// Shift semantics: moves a *pointed-to* cell across its siblings
  /// (p[i] forms and pointer arithmetic), staying within the object.
  /// Appends to \p Out.
  void applyIndexToTarget(const Location *L, simple::IndexKind IK, Def D,
                          std::vector<LocDef> &Out);

  /// Select semantics: picks the head/tail element of an aggregate
  /// named directly (a[i] on an array lvalue). Appends to \p Out.
  void selectElement(const Location *L, simple::IndexKind IK, Def D,
                     std::vector<LocDef> &Out);

  /// The base location of a plain variable.
  const Location *baseLoc(const cfront::VarDecl *V) { return Locs.varLoc(V); }

private:
  void applyAccessor(std::vector<LocDef> &Set, const simple::Accessor &A);

  LocationTable &Locs;
  /// The cells a value is read from (rvalLocations).
  std::vector<LocDef> Cells;
  /// The next hop of an index accessor or pointer arithmetic, swapped
  /// into the result when complete.
  std::vector<LocDef> Next;
};

/// Deduplicates a LocDef set in place. A location listed with both flags
/// keeps D (the definite derivation subsumes the possible one); if the
/// set still names more than one distinct location, every entry is
/// demoted to P — a reference cannot definitely be two different
/// locations at once.
void normalizeLocDefs(std::vector<LocDef> &Set);

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_LRLOCATIONS_H
