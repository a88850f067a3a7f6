//===- LRLocations.cpp - Table 1: L- and R-location sets --------------------===//

#include "pointsto/LRLocations.h"

#include <algorithm>
#include <cassert>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::simple;
using namespace mcpta::cfront;

void mcpta::pta::normalizeLocDefs(std::vector<LocDef> &Set) {
  if (Set.size() <= 1)
    return;
  std::sort(Set.begin(), Set.end(), [](const LocDef &A, const LocDef &B) {
    if (A.Loc != B.Loc)
      return A.Loc->id() < B.Loc->id();
    return A.D < B.D; // D before P
  });
  // Keep the first of each run: the stronger flag (D sorts first).
  Set.erase(std::unique(Set.begin(), Set.end(),
                        [](const LocDef &A, const LocDef &B) {
                          return A.Loc == B.Loc;
                        }),
            Set.end());
  if (Set.size() > 1)
    for (LocDef &LD : Set)
      LD.D = Def::P;
}

void LREvaluator::applyIndexToTarget(const Location *L, IndexKind IK, Def D,
                                     std::vector<LocDef> &Out) {
  // Shift semantics: the location is a *cell* a pointer designates, and
  // the index moves across its siblings, staying within the underlying
  // object (the paper's pointer-arithmetic flag, setting (1)):
  //   - from the head element of an array, positive offsets land in the
  //     tail; unknown offsets cover both;
  //   - from the tail, anywhere in the tail;
  //   - from a whole-array cell (p = &arr) or a scalar, the object
  //     itself.
  if (L->isHeap() || L->isNull()) {
    Out.push_back({L, D});
    return;
  }
  if (IK == IndexKind::Zero) {
    Out.push_back({L, D});
    return;
  }
  bool AtHead =
      !L->path().empty() && L->path().back().K == PathElem::Kind::Head;
  const Type *Ty = L->type();
  bool WholeArray = Ty && Ty->isArray();
  if (AtHead && !WholeArray) {
    if (IK == IndexKind::Unknown)
      Out.push_back({L, Def::P});
    Out.push_back({Locs.headToTail(L), Def::P});
    return;
  }
  // Head-of-array-of-arrays cells shift across the outer dimension.
  if (AtHead && WholeArray) {
    if (IK == IndexKind::Unknown)
      Out.push_back({L, Def::P});
    Out.push_back({Locs.headToTail(L), Def::P});
    return;
  }
  Out.push_back({L, Def::P});
}

void LREvaluator::selectElement(const Location *L, IndexKind IK, Def D,
                                std::vector<LocDef> &Out) {
  // Select semantics: the location is an aggregate named directly (an
  // array lvalue); the index picks its head/tail element.
  if (L->isHeap() || L->isNull()) {
    Out.push_back({L, D});
    return;
  }
  const Type *Ty = L->type();
  if (!Ty || !Ty->isArray()) {
    // Type information was lost (casts): be conservative, stay put.
    applyIndexToTarget(L, IK, D, Out);
    return;
  }
  switch (IK) {
  case IndexKind::Zero:
    Out.push_back({Locs.withElem(L, /*Head=*/true), D});
    return;
  case IndexKind::Positive:
    Out.push_back({Locs.withElem(L, /*Head=*/false), Def::P});
    return;
  case IndexKind::Unknown:
    Out.push_back({Locs.withElem(L, /*Head=*/true), Def::P});
    Out.push_back({Locs.withElem(L, /*Head=*/false), Def::P});
    return;
  }
}

void LREvaluator::applyAccessor(std::vector<LocDef> &Set, const Accessor &A) {
  if (A.K == Accessor::Kind::Field) {
    for (LocDef &LD : Set)
      LD.Loc = Locs.withField(LD.Loc, A.Field);
    return;
  }
  Next.clear();
  for (const LocDef &LD : Set) {
    if (A.IsShift)
      applyIndexToTarget(LD.Loc, A.Index, LD.D, Next);
    else
      selectElement(LD.Loc, A.Index, LD.D, Next);
  }
  Set.swap(Next);
}

void LREvaluator::refLocations(const Reference &Ref, const PointsToSet &S,
                               std::vector<LocDef> &Out) {
  assert(Ref.isValid() && "reference has no base variable");
  Out.clear();
  const Location *Base = Locs.varLoc(Ref.Base);
  if (Ref.Deref) {
    // Dereference reads the base pointer's targets from S. NULL targets
    // are skipped: execution dereferencing NULL does not reach the
    // statement's continuation (the paper makes the same assumption in
    // Sec. 6).
    S.forEachTarget(Base, Locs, [&](const Location *T, Def D) {
      if (!T->isNull())
        Out.push_back({T, D});
    });
  } else {
    Out.push_back({Base, Def::D});
  }
  for (const Accessor &A : Ref.Path)
    applyAccessor(Out, A);
  normalizeLocDefs(Out);
}

void LREvaluator::lvalLocations(const Reference &Ref, const PointsToSet &S,
                                std::vector<LocDef> &Out) {
  assert(!Ref.AddrOf && "address values are not assignable");
  refLocations(Ref, S, Out);
  // Summary locations are never strong-update targets.
  for (LocDef &LD : Out)
    if (LD.Loc->isSummary())
      LD.D = Def::P;
}

void LREvaluator::rvalLocations(const Reference &Ref, const PointsToSet &S,
                                std::vector<LocDef> &Out) {
  if (Ref.AddrOf) {
    // &ref: the value *is* the set of addresses.
    refLocations(Ref, S, Out);
    return;
  }
  // Read the pointer stored at each location: one more hop through S.
  refLocations(Ref, S, Cells);
  Out.clear();
  for (const LocDef &LD : Cells)
    S.forEachTarget(LD.Loc, Locs, [&](const Location *T, Def D) {
      Out.push_back({T, meet(LD.D, D)});
    });
  normalizeLocDefs(Out);
}

void LREvaluator::operandRLocations(const Operand &Op, const PointsToSet &S,
                                    std::vector<LocDef> &Out) {
  Out.clear();
  switch (Op.K) {
  case Operand::Kind::Ref:
    rvalLocations(Op.Ref, S, Out);
    return;
  case Operand::Kind::IntConst:
  case Operand::Kind::FloatConst:
    return;
  case Operand::Kind::NullConst:
    Out.push_back({Locs.null(), Def::D});
    return;
  case Operand::Kind::StringConst: {
    const Entity *E = Locs.stringLit(Op.StringId, Op.Ty);
    Out.push_back({Locs.withElem(Locs.get(E), /*Head=*/true), Def::D});
    return;
  }
  case Operand::Kind::FunctionAddr:
    Out.push_back({Locs.fnLoc(Op.Fn), Def::D});
    return;
  }
}

void LREvaluator::binaryRLocations(const Operand &A, BinaryOp Op,
                                   const Operand &B, const PointsToSet &S,
                                   std::vector<LocDef> &Out) {
  Out.clear();
  // Only additive operators can produce pointers from pointers.
  if (Op != BinaryOp::Add && Op != BinaryOp::Sub)
    return;

  auto IsPointerish = [](const Operand &O) {
    return O.Ty && (O.Ty->isPointer() || O.Ty->isArray());
  };
  const Operand *Ptr = nullptr;
  const Operand *Idx = nullptr;
  if (IsPointerish(A)) {
    Ptr = &A;
    Idx = &B;
  } else if (IsPointerish(B) && Op == BinaryOp::Add) {
    Ptr = &B;
    Idx = &A;
  } else {
    return;
  }
  if (IsPointerish(A) && IsPointerish(B) && Op == BinaryOp::Sub)
    return; // ptr - ptr is an integer

  operandRLocations(*Ptr, S, Out);

  // Classify the offset.
  IndexKind IK = IndexKind::Unknown;
  if (Idx->K == Operand::Kind::IntConst) {
    if (Idx->IntValue == 0)
      IK = IndexKind::Zero;
    else if (Idx->IntValue > 0 && Op == BinaryOp::Add)
      IK = IndexKind::Positive;
    else
      IK = IndexKind::Unknown; // negative or subtracted offset
  }
  if (Op == BinaryOp::Sub && IK != IndexKind::Zero)
    IK = IndexKind::Unknown;

  if (IK == IndexKind::Zero)
    return;

  // Out holds the pointer's targets; build the shifted set in Next.
  Next.clear();
  for (const LocDef &LD : Out) {
    if (LD.Loc->isNull())
      continue;
    // Subtraction can move from tail back to head.
    if (Op == BinaryOp::Sub) {
      bool AtTail = !LD.Loc->path().empty() &&
                    LD.Loc->path().back().K == PathElem::Kind::Tail;
      if (AtTail) {
        std::vector<PathElem> Path = LD.Loc->path();
        Path.back() = PathElem::head();
        Next.push_back({Locs.get(LD.Loc->root(), Path), Def::P});
        Next.push_back({LD.Loc, Def::P});
        continue;
      }
      Next.push_back({LD.Loc, Def::P});
      continue;
    }
    applyIndexToTarget(LD.Loc, IK, LD.D, Next);
  }
  Out.swap(Next);
  normalizeLocDefs(Out);
}
