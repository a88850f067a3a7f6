//===- BodyKernel.cpp - Sequential body-transfer kernel -------------------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/BodyKernel.h"

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;

/// Warning-attribution owner for a node being evaluated.
static const cf::FunctionDecl *ownerName(const IGNode *Ign) {
  return Ign ? Ign->function() : nullptr;
}

void BodyKernel::applyAssignRule(PointsToSet &S,
                                 const std::vector<LocDef> &Llocs,
                                 const std::vector<LocDef> &Rlocs) {
  if (Llocs.size() == 1 && Llocs[0].D == Def::D) {
    // One definite L-location: kill_set is its whole source run and
    // gen_set replaces it, so the update is one splice of that run.
    const Location *L = Llocs[0].Loc;
    Gen.clear();
    for (const LocDef &R : Rlocs)
      Gen.push_back(PointsToSet::Entry::make(
          PointsToSet::key(L, R.Loc), R.Loc->isSummary() ? Def::P : R.D));
    S.replaceFrom(L, Gen);
    return;
  }
  // kill_set: all relationships of definite L-locations.
  for (const LocDef &L : Llocs)
    if (L.D == Def::D)
      S.killFrom(L.Loc);
  // change_set: definite relationships of possible L-locations weaken.
  for (const LocDef &L : Llocs)
    if (L.D == Def::P)
      S.demoteFrom(L.Loc);
  // gen_set: cross product; definite only when both sides are definite
  // and the target can be definite at all.
  for (const LocDef &L : Llocs)
    for (const LocDef &R : Rlocs) {
      Def D = meet(L.D, R.D);
      if (R.Loc->isSummary())
        D = Def::P;
      S.insert(L.Loc, R.Loc, D);
    }
}

void BodyKernel::pointerSuffixPaths(const cf::Type *Ty,
                                    std::vector<PathElem> &Prefix,
                                    std::vector<std::vector<PathElem>> &Out) {
  if (!Ty)
    return;
  switch (Ty->kind()) {
  case cf::Type::Kind::Pointer:
    Out.push_back(Prefix);
    return;
  case cf::Type::Kind::Record:
    for (const cf::FieldDecl *F : cf::cast<cf::RecordType>(Ty)->decl()->fields()) {
      if (!F->type()->isPointerBearing())
        continue;
      Prefix.push_back(PathElem::field(F));
      pointerSuffixPaths(F->type(), Prefix, Out);
      Prefix.pop_back();
    }
    return;
  case cf::Type::Kind::Array: {
    const auto *AT = cf::cast<cf::ArrayType>(Ty);
    if (!AT->element()->isPointerBearing())
      return;
    Prefix.push_back(PathElem::head());
    pointerSuffixPaths(AT->element(), Prefix, Out);
    Prefix.pop_back();
    Prefix.push_back(PathElem::tail());
    pointerSuffixPaths(AT->element(), Prefix, Out);
    Prefix.pop_back();
    return;
  }
  default:
    return;
  }
}

const Location *BodyKernel::applyPath(LocationTable &Locs, const Location *L,
                                      const std::vector<PathElem> &Path) {
  for (const PathElem &PE : Path) {
    switch (PE.K) {
    case PathElem::Kind::Field:
      L = Locs.withField(L, PE.Field);
      break;
    case PathElem::Kind::Head:
      L = Locs.withElem(L, true);
      break;
    case PathElem::Kind::Tail:
      L = Locs.withElem(L, false);
      break;
    }
  }
  return L;
}

void BodyKernel::applyStructCopy(PointsToSet &S,
                                 const std::vector<LocDef> &LhsStorage,
                                 const std::vector<LocDef> &RhsStorage,
                                 const cf::Type *Ty) {
  std::vector<std::vector<PathElem>> Suffixes;
  std::vector<PathElem> Prefix;
  pointerSuffixPaths(Ty, Prefix, Suffixes);
  for (const std::vector<PathElem> &P : Suffixes) {
    Llocs.clear();
    Rlocs.clear();
    for (const LocDef &L : LhsStorage) {
      const Location *LL = applyPath(Locs, L.Loc, P);
      Def D = (L.D == Def::D && !LL->isSummary()) ? Def::D : Def::P;
      Llocs.push_back({LL, D});
    }
    for (const LocDef &R : RhsStorage) {
      const Location *RL = applyPath(Locs, R.Loc, P);
      S.forEachTarget(RL, Locs, [&](const Location *T, Def D) {
        Rlocs.push_back({T, meet(R.D, D)});
      });
    }
    normalizeLocDefs(Llocs);
    normalizeLocDefs(Rlocs);
    applyAssignRule(S, Llocs, Rlocs);
  }
}

//===----------------------------------------------------------------------===//
// Compositional rules
//===----------------------------------------------------------------------===//

FlowState BodyKernel::process(const Stmt *S, OptSet In, IGNode *Ign) {
  if (!S || !In)
    return {};
  if (Opts.LiveStmts) {
    const std::vector<uint8_t> &Live = *Opts.LiveStmts;
    unsigned Id = S->id();
    if (Id < Live.size() && !Live[Id]) {
      // Demand-driven pruning: a dead statement is an identity transfer.
      // The demand engine only marks a statement dead when its effect
      // cannot touch the query's relevant roots, so passing the input
      // through unchanged reproduces the exhaustive result's projection.
      ++C.StmtSkips;
      FlowState FS;
      FS.Normal = std::move(In);
      return FS;
    }
  }
  ++C.StmtVisits;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    return processBlock(castStmt<BlockStmt>(S), std::move(In), Ign);
  case Stmt::Kind::If:
    return processIf(castStmt<IfStmt>(S), std::move(In), Ign);
  case Stmt::Kind::Loop:
    return processLoop(castStmt<LoopStmt>(S), std::move(In), Ign);
  case Stmt::Kind::Switch:
    return processSwitch(castStmt<SwitchStmt>(S), std::move(In), Ign);
  case Stmt::Kind::Assign:
    return processAssign(castStmt<AssignStmt>(S), std::move(In), Ign);
  case Stmt::Kind::Call: {
    E.recordStmtIn(S, In);
    const auto *CS = castStmt<CallStmt>(S);
    FlowState FS;
    FS.Normal = E.processCall(CS->Call, nullptr, std::move(In), Ign);
    return FS;
  }
  case Stmt::Kind::Return:
    return processReturn(castStmt<ReturnStmt>(S), std::move(In), Ign);
  case Stmt::Kind::Break: {
    FlowState FS;
    FS.Brk = std::move(In);
    return FS;
  }
  case Stmt::Kind::Continue: {
    FlowState FS;
    FS.Cont = std::move(In);
    return FS;
  }
  }
  return {};
}

FlowState BodyKernel::processBlock(const BlockStmt *B, OptSet In,
                                   IGNode *Ign) {
  FlowState Acc;
  Acc.Normal = std::move(In);
  for (const Stmt *S : B->Body) {
    if (!Acc.Normal)
      break; // the rest of the block is unreachable
    FlowState FS = process(S, std::move(Acc.Normal), Ign);
    Acc.Normal = std::move(FS.Normal);
    mergeInto(Acc.Brk, FS.Brk);
    mergeInto(Acc.Cont, FS.Cont);
    mergeInto(Acc.Ret, FS.Ret);
  }
  return Acc;
}

FlowState BodyKernel::processIf(const IfStmt *I, OptSet In, IGNode *Ign) {
  E.recordStmtIn(I, In);
  FlowState Th = process(I->Then, In, Ign);
  FlowState El;
  if (I->Else)
    El = process(I->Else, In, Ign);
  else
    El.Normal = In;

  FlowState Out;
  Out.Normal = std::move(Th.Normal);
  mergeInto(Out.Normal, El.Normal);
  Out.Brk = std::move(Th.Brk);
  mergeInto(Out.Brk, El.Brk);
  Out.Cont = std::move(Th.Cont);
  mergeInto(Out.Cont, El.Cont);
  Out.Ret = std::move(Th.Ret);
  mergeInto(Out.Ret, El.Ret);
  return Out;
}

FlowState BodyKernel::processLoop(const LoopStmt *L, OptSet In, IGNode *Ign) {
  E.recordStmtIn(L, In);
  // Figure 1's while rule: generalize the loop-head state until a fixed
  // point, accumulating the abrupt-exit channels across iterations.
  OptSet X = In;
  OptSet BreakAcc, RetAcc;
  OptSet LastTrailOut; // state after body+trailer of the last iteration
  unsigned Iters = 0;
  unsigned Passes = 0;
  while (true) {
    ++C.LoopIterations;
    ++Passes;
    OptSet Prev = X;
    FlowState B = process(L->Body, X, Ign);
    mergeInto(BreakAcc, B.Brk);
    mergeInto(RetAcc, B.Ret);
    OptSet TIn = std::move(B.Normal);
    mergeInto(TIn, B.Cont);
    OptSet TOut;
    if (L->Trailer) {
      FlowState T = process(L->Trailer, std::move(TIn), Ign);
      mergeInto(RetAcc, T.Ret); // trailers are straight-line code
      TOut = std::move(T.Normal);
    } else {
      TOut = std::move(TIn);
    }
    LastTrailOut = TOut;
    mergeInto(X, TOut);
    if ((!X && !Prev) || (X && Prev && *X == *Prev))
      break;
    // Governed cut: a run well past its deadline stops generalizing the
    // loop head. The partial state is kept but fully demoted — none of
    // the un-reached iterations' kills is trusted as definite.
    if (Meter && Passes >= 2 && Meter->hardDeadline()) {
      if (X)
        X->demoteAll();
      if (BreakAcc)
        BreakAcc->demoteAll();
      if (RetAcc)
        RetAcc->demoteAll();
      if (LastTrailOut)
        LastTrailOut->demoteAll();
      E.recordDegradation(support::LimitKind::Deadline, "loop fixed point",
                          "cut short past the hard deadline before "
                          "convergence; definiteness dropped");
      break;
    }
    if (++Iters > Opts.MaxLoopIterations) {
      ++C.LoopLimitHits;
      E.warnOnce(ownerName(Ign), "loop-fixpoint",
                 "loop fixed point did not converge within the iteration "
                 "limit; results remain safe but may be imprecise");
      break;
    }
  }
  if (HLoopIters)
    HLoopIters->record(Passes);

  FlowState Out;
  if (L->PostTest)
    Out.Normal = L->CondVar ? LastTrailOut : OptSet();
  else
    Out.Normal = L->CondVar ? X : OptSet();
  mergeInto(Out.Normal, BreakAcc);
  Out.Ret = std::move(RetAcc);
  return Out;
}

FlowState BodyKernel::processSwitch(const SwitchStmt *Sw, OptSet In,
                                    IGNode *Ign) {
  E.recordStmtIn(Sw, In);
  FlowState Out;
  OptSet Fall; // flows from one case into the next
  for (const SwitchStmt::Case &Case : Sw->Cases) {
    OptSet Entry = In;
    mergeInto(Entry, Fall);
    FlowState CS;
    CS.Normal = std::move(Entry);
    for (const Stmt *S : Case.Body) {
      if (!CS.Normal)
        break;
      FlowState FS = process(S, std::move(CS.Normal), Ign);
      CS.Normal = std::move(FS.Normal);
      mergeInto(CS.Brk, FS.Brk);
      mergeInto(CS.Cont, FS.Cont);
      mergeInto(CS.Ret, FS.Ret);
    }
    Fall = std::move(CS.Normal);
    mergeInto(Out.Brk, CS.Brk);
    mergeInto(Out.Cont, CS.Cont);
    mergeInto(Out.Ret, CS.Ret);
  }
  Out.Normal = std::move(Fall);
  if (!Sw->hasDefault())
    mergeInto(Out.Normal, In); // no case may match
  mergeInto(Out.Normal, Out.Brk);
  Out.Brk.reset(); // breaks bind to the switch
  return Out;
}

FlowState BodyKernel::processAssign(const AssignStmt *A, OptSet In,
                                    IGNode *Ign) {
  E.recordStmtIn(A, In);
  FlowState FS;
  PointsToSet S = std::move(*In);
  const cf::Type *LhsTy = A->Lhs.Ty;

  // Calls must be evaluated for their side effects whatever the lhs is.
  if (A->RK == AssignStmt::RhsKind::Call) {
    const Reference *LhsRef =
        (LhsTy && (LhsTy->isPointerBearing() || LhsTy->isRecord()))
            ? &A->Lhs
            : nullptr;
    FS.Normal = E.processCall(A->Call, LhsRef, OptSet(std::move(S)), Ign);
    return FS;
  }

  if (!LhsTy || (!LhsTy->isPointerBearing() && !LhsTy->isRecord() &&
                 !LhsTy->isArray())) {
    FS.Normal = std::move(S);
    return FS; // not a pointer assignment (Figure 1's first case)
  }

  if (LhsTy->isRecord() || LhsTy->isArray()) {
    // Aggregate copy: s1 = s2 decomposes into pointer components.
    if (A->RK == AssignStmt::RhsKind::Operand && A->A.isRef() &&
        LhsTy->isPointerBearing()) {
      Eval.lvalLocations(A->Lhs, S, LhsStorage);
      Eval.refLocations(A->A.Ref, S, RhsStorage);
      applyStructCopy(S, LhsStorage, RhsStorage, LhsTy);
    }
    FS.Normal = std::move(S);
    return FS;
  }

  // Scalar pointer assignment.
  switch (A->RK) {
  case AssignStmt::RhsKind::Operand:
    Eval.operandRLocations(A->A, S, Rlocs);
    break;
  case AssignStmt::RhsKind::Binary:
    Eval.binaryRLocations(A->A, A->BOp, A->B, S, Rlocs);
    break;
  case AssignStmt::RhsKind::Unary:
    Rlocs.clear(); // unary ops never produce pointers
    break;
  case AssignStmt::RhsKind::Alloc:
    Rlocs.assign(1, {Locs.heap(), Def::P}); // Table 1's malloc() row
    break;
  case AssignStmt::RhsKind::Call:
    // Handled at the top of this function; reaching here means the
    // lowering produced an inconsistent statement. Recover with an
    // unknown right-hand side instead of dying on malformed input.
    E.warnOnce(ownerName(Ign), "assign-call-rhs",
               "internal: call rhs reached the scalar assignment path; "
               "right-hand side treated as unknown");
    Rlocs.clear();
    break;
  }

  Eval.lvalLocations(A->Lhs, S, Llocs);
  applyAssignRule(S, Llocs, Rlocs);
  FS.Normal = std::move(S);
  return FS;
}

FlowState BodyKernel::processReturn(const ReturnStmt *R, OptSet In,
                                    IGNode *Ign) {
  E.recordStmtIn(R, In);
  PointsToSet S = std::move(*In);
  const cf::FunctionDecl *F = Ign->function();
  if (R->Value && F && F->returnType()->isRecord()) {
    // Struct return: copy the aggregate into retval component-wise.
    if (R->Value->isRef() && F->returnType()->isPointerBearing()) {
      LhsStorage.assign(1, {Locs.get(Locs.retval(F)), Def::D});
      Eval.refLocations(R->Value->Ref, S, RhsStorage);
      applyStructCopy(S, LhsStorage, RhsStorage, F->returnType());
    }
  } else if (R->Value && F && F->returnType()->isPointerBearing()) {
    Llocs.assign(1, {Locs.get(Locs.retval(F)), Def::D});
    Eval.operandRLocations(*R->Value, S, Rlocs);
    applyAssignRule(S, Llocs, Rlocs);
  }
  FlowState FS;
  FS.Ret = std::move(S);
  return FS;
}
