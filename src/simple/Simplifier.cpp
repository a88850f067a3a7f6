//===- Simplifier.cpp - AST-to-SIMPLE lowering ------------------------------===//

#include "simple/Simplifier.h"

#include <cassert>

using namespace mcpta;
using namespace mcpta::simple;
using namespace mcpta::cfront;

bool mcpta::simple::isAllocatorName(const std::string &Name) {
  return Name == "malloc" || Name == "calloc" || Name == "realloc" ||
         Name == "valloc" || Name == "memalign" || Name == "strdup";
}

bool mcpta::simple::isNoReturnName(const std::string &Name) {
  return Name == "exit" || Name == "abort" || Name == "_exit";
}

namespace {

/// True if evaluating E can have side effects (assignments, calls,
/// increments). Used to decide whether && / || need control-flow
/// lowering.
bool hasSideEffects(const Expr *E) {
  if (!E)
    return false;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::FloatLiteral:
  case Expr::Kind::StringLiteral:
  case Expr::Kind::NullLiteral:
  case Expr::Kind::DeclRef:
    return false;
  case Expr::Kind::Assign:
  case Expr::Kind::Call:
    return true;
  case Expr::Kind::Unary: {
    const auto *U = dynCastExpr<UnaryExpr>(E);
    switch (U->op()) {
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      return true;
    default:
      return hasSideEffects(U->sub());
    }
  }
  case Expr::Kind::Binary: {
    const auto *B = dynCastExpr<BinaryExpr>(E);
    return hasSideEffects(B->lhs()) || hasSideEffects(B->rhs());
  }
  case Expr::Kind::Conditional: {
    const auto *C = dynCastExpr<ConditionalExpr>(E);
    return hasSideEffects(C->cond()) || hasSideEffects(C->thenExpr()) ||
           hasSideEffects(C->elseExpr());
  }
  case Expr::Kind::Member:
    return hasSideEffects(dynCastExpr<MemberExpr>(E)->base());
  case Expr::Kind::ArraySubscript: {
    const auto *A = dynCastExpr<ArraySubscriptExpr>(E);
    return hasSideEffects(A->base()) || hasSideEffects(A->index());
  }
  case Expr::Kind::Cast:
    return hasSideEffects(dynCastExpr<CastExpr>(E)->sub());
  case Expr::Kind::InitList: {
    for (const Expr *I : dynCastExpr<InitListExpr>(E)->inits())
      if (hasSideEffects(I))
        return true;
    return false;
  }
  }
  return true;
}

} // namespace

struct Simplifier::Impl {
  TranslationUnit &Unit;
  ASTContext &Ctx;
  TypeContext &Types;
  DiagnosticsEngine &Diags;
  std::unique_ptr<Program> Prog;

  FunctionDecl *CurFunction = nullptr;
  FunctionIR *CurIR = nullptr;
  std::vector<BlockStmt *> BlockStack;
  unsigned TempCount = 0;

  Impl(TranslationUnit &Unit, DiagnosticsEngine &Diags)
      : Unit(Unit), Ctx(Unit.context()), Types(Ctx.types()), Diags(Diags) {}

  //===--------------------------------------------------------------------===//
  // Emission helpers
  //===--------------------------------------------------------------------===//

  BlockStmt *pushBlock(SourceLoc Loc) {
    BlockStmt *B = Prog->create<BlockStmt>(Loc);
    BlockStack.push_back(B);
    return B;
  }
  BlockStmt *popBlock() {
    BlockStmt *B = BlockStack.back();
    BlockStack.pop_back();
    return B;
  }
  void emit(Stmt *S) {
    assert(!BlockStack.empty() && "no active block");
    BlockStack.back()->Body.push_back(S);
  }

  const VarDecl *makeTemp(const Type *Ty, SourceLoc Loc) {
    std::string Name = "$t" + std::to_string(TempCount++);
    auto *VD = Ctx.create<VarDecl>(Name, Loc, Ty, VarDecl::Storage::Temp);
    VD->setOwner(CurFunction);
    if (CurIR)
      CurIR->Locals.push_back(VD);
    return VD;
  }

  static Reference varRef(const VarDecl *V) {
    Reference R;
    R.Base = V;
    R.Ty = V->type();
    return R;
  }

  /// The value of an lvalue reference used as an rvalue operand.
  static Operand refOperand(const Reference &R) { return Operand::makeRef(R); }

  /// Normalizes a literal-0 operand assigned/compared to a pointer into
  /// the NULL constant (the paper treats NULL as a distinguished target).
  Operand coerce(Operand Op, const Type *DstTy) {
    if (!DstTy)
      return Op;
    const Type *D = DstTy;
    if (D->isPointer() && Op.K == Operand::Kind::IntConst &&
        Op.IntValue == 0)
      return Operand::makeNull(D);
    return Op;
  }

  void emitAssignOperand(Reference Lhs, Operand Rhs, SourceLoc Loc) {
    Rhs = coerce(std::move(Rhs), Lhs.Ty);
    auto *S = Prog->create<AssignStmt>(Loc, std::move(Lhs));
    S->RK = AssignStmt::RhsKind::Operand;
    S->A = std::move(Rhs);
    emit(S);
  }

  Operand materializeTo(const Type *Ty, Operand Op, SourceLoc Loc) {
    const VarDecl *T = makeTemp(Ty, Loc);
    emitAssignOperand(varRef(T), std::move(Op), Loc);
    return refOperand(varRef(T));
  }

  //===--------------------------------------------------------------------===//
  // References (lvalue lowering)
  //===--------------------------------------------------------------------===//

  /// Array decay: the value of an array-typed reference is the address of
  /// its first element.
  Reference decayArrayRef(Reference R) {
    if (!R.Ty || !R.Ty->isArray()) {
      // Lowering inconsistency: a non-array reference reached array
      // decay. Diagnose and pass it through unchanged rather than
      // dying on malformed input.
      Diags.error(SourceLoc(),
                  "internal: array decay applied to a non-array reference");
      return R;
    }
    const Type *Elem = cast<ArrayType>(R.Ty)->element();
    R.Path.push_back(Accessor::index(IndexKind::Zero));
    R.AddrOf = true;
    R.Ty = Types.pointerTo(Elem);
    return R;
  }

  /// Lowers E to a plain pointer-typed variable (for use as the base of a
  /// dereference). Emits a copy through a temp unless E already is a
  /// simple variable.
  const VarDecl *materializePointerVar(Expr *E) {
    if (auto *DR = dynCastExpr<DeclRefExpr>(E))
      if (auto *VD = dynCastDecl<VarDecl>(DR->decl()))
        if (VD->type()->isPointer())
          return VD;
    Operand Op = lowerExpr(E);
    const Type *Ty = Op.Ty;
    if (Ty && Ty->isArray())
      Ty = Types.pointerTo(cast<ArrayType>(Ty)->element());
    if (!Ty || !Ty->isPointer()) {
      Diags.error(E->loc(), "expected pointer-typed expression");
      Ty = Types.pointerTo(Types.intType());
    }
    const VarDecl *T = makeTemp(Ty, E->loc());
    emitAssignOperand(varRef(T), std::move(Op), E->loc());
    return T;
  }

  /// Lowers a subscript expression into an index accessor. The abstract
  /// kind (0 / positive / unknown) feeds the analysis; the concrete
  /// constant or temp variable feeds the SIMPLE interpreter.
  Accessor makeIndexAccessor(Expr *Index) {
    if (const auto *IL = dynCastExpr<IntLiteralExpr>(Index))
      return Accessor::index(IL->value() == 0  ? IndexKind::Zero
                             : IL->value() > 0 ? IndexKind::Positive
                                               : IndexKind::Unknown,
                             IL->value());
    Operand Op = lowerExpr(Index);
    if (Op.K == Operand::Kind::IntConst)
      return Accessor::index(Op.IntValue == 0  ? IndexKind::Zero
                             : Op.IntValue > 0 ? IndexKind::Positive
                                               : IndexKind::Unknown,
                             Op.IntValue);
    if (!Op.isRef() || Op.Ref.Deref || Op.Ref.AddrOf ||
        !Op.Ref.Path.empty())
      Op = materializeTo(Types.intType(), std::move(Op), Index->loc());
    return Accessor::index(IndexKind::Unknown, 0, Op.Ref.Base);
  }

  /// Lowers an lvalue expression to a SIMPLE reference (Table 1 forms).
  Reference lowerLvalue(Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::DeclRef: {
      auto *DR = castExpr<DeclRefExpr>(E);
      if (auto *VD = dynCastDecl<VarDecl>(DR->decl()))
        return varRef(VD);
      Diags.error(E->loc(), "expression is not an assignable location");
      break;
    }
    case Expr::Kind::Member: {
      auto *M = castExpr<MemberExpr>(E);
      Reference R;
      if (M->isArrow()) {
        const VarDecl *P = materializePointerVar(M->base());
        R.Base = P;
        R.Deref = true;
      } else {
        R = lowerLvalue(M->base());
        if (R.AddrOf) {
          Diags.error(E->loc(), "cannot select member of address value");
          return R;
        }
      }
      R.Path.push_back(Accessor::field(M->member()));
      R.Ty = M->member()->type();
      return R;
    }
    case Expr::Kind::Unary: {
      auto *U = castExpr<UnaryExpr>(E);
      if (U->op() == UnaryOp::Deref) {
        Reference R;
        R.Base = materializePointerVar(U->sub());
        R.Deref = true;
        R.Ty = E->type();
        return R;
      }
      break;
    }
    case Expr::Kind::ArraySubscript: {
      auto *A = castExpr<ArraySubscriptExpr>(E);
      Accessor Idx = makeIndexAccessor(A->index());
      const Type *BaseTy = A->base()->type();
      Reference R;
      if (BaseTy->isArray()) {
        R = lowerLvalue(A->base());
        if (R.AddrOf) {
          Diags.error(E->loc(), "cannot subscript address value");
          return R;
        }
        R.Path.push_back(Idx);
        R.Ty = E->type();
        return R;
      }
      // Pointer subscript: p[i] is *(p + i) — a shift across cells.
      Idx.IsShift = true;
      R.Base = materializePointerVar(A->base());
      R.Deref = true;
      R.Path.push_back(Idx);
      R.Ty = E->type();
      return R;
    }
    case Expr::Kind::Cast:
      // Lvalue casts: lower through (types were checked by the parser).
      return lowerLvalue(castExpr<CastExpr>(E)->sub());
    default:
      break;
    }
    Diags.error(E->loc(), "expression is not an assignable location");
    Reference R;
    R.Base = makeTemp(E->type(), E->loc());
    R.Ty = E->type();
    return R;
  }

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  /// Lowers one call argument to a constant or plain variable name.
  Operand lowerArg(Expr *E) {
    Operand Op = lowerExpr(E);
    switch (Op.K) {
    case Operand::Kind::Ref: {
      const Reference &R = Op.Ref;
      bool Plain = !R.Deref && !R.AddrOf && R.Path.empty();
      if (Plain)
        return Op;
      return materializeTo(R.Ty ? R.Ty : E->type(), std::move(Op), E->loc());
    }
    case Operand::Kind::FunctionAddr: {
      // Function arguments become plain function-pointer variables.
      const Type *PT = Types.pointerTo(Op.Fn->type());
      return materializeTo(PT, std::move(Op), E->loc());
    }
    default:
      return Op;
    }
  }

  /// Builds the CallInfo for a call expression (lowering the callee and
  /// args), or returns std::nullopt for allocator calls.
  CallInfo lowerCallInfo(CallExpr *CE) {
    CallInfo CI;
    CI.CallSiteId = Prog->allocCallSiteId();
    if (FunctionDecl *FD = CE->directCallee()) {
      CI.Callee = FD;
      CI.NoReturn = isNoReturnName(FD->name());
    } else {
      // Indirect call: reduce the function pointer to a plain scalar
      // variable.
      Expr *Callee = CE->callee();
      // Peel the no-op deref of the function designator: in (*fp)() the
      // deref yields the function itself, so the call goes through fp.
      // A deref yielding another function *pointer* (e.g. (*pfp) with
      // pfp of type int(**)(void)) is a real load and must stay.
      while (true) {
        if (auto *C = dynCastExpr<CastExpr>(Callee)) {
          Callee = C->sub();
          continue;
        }
        if (auto *U = dynCastExpr<UnaryExpr>(Callee)) {
          if (U->op() == UnaryOp::Deref && U->type()->isFunction()) {
            Callee = U->sub();
            continue;
          }
        }
        break;
      }
      const VarDecl *FP = materializePointerVar(Callee);
      CI.FnPtr = varRef(FP);
    }
    for (Expr *Arg : CE->args())
      CI.Args.push_back(lowerArg(Arg));
    return CI;
  }

  bool isAllocatorCall(const CallExpr *CE) {
    const FunctionDecl *FD = CE->directCallee();
    return FD && isAllocatorName(FD->name());
  }

  /// Lowers a call in value position into `lhs = call`.
  void emitCallAssign(Reference Lhs, CallExpr *CE) {
    auto *S = Prog->create<AssignStmt>(CE->loc(), std::move(Lhs));
    if (isAllocatorCall(CE)) {
      // Arguments of malloc & friends are size expressions; evaluate for
      // side effects only.
      for (Expr *Arg : CE->args())
        if (hasSideEffects(Arg))
          lowerExpr(Arg);
      S->RK = AssignStmt::RhsKind::Alloc;
    } else {
      S->RK = AssignStmt::RhsKind::Call;
      S->Call = lowerCallInfo(CE);
    }
    emit(S);
  }

  //===--------------------------------------------------------------------===//
  // Expressions (rvalue lowering)
  //===--------------------------------------------------------------------===//

  Operand lowerExpr(Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
      return Operand::makeInt(castExpr<IntLiteralExpr>(E)->value(),
                              E->type());
    case Expr::Kind::FloatLiteral:
      return Operand::makeFloat(castExpr<FloatLiteralExpr>(E)->value(),
                                E->type());
    case Expr::Kind::NullLiteral:
      return Operand::makeNull(E->type());
    case Expr::Kind::StringLiteral: {
      unsigned Id =
          Prog->internString(castExpr<StringLiteralExpr>(E)->value());
      return Operand::makeString(Id, Types.pointerTo(Types.charType()));
    }
    case Expr::Kind::DeclRef: {
      auto *DR = castExpr<DeclRefExpr>(E);
      if (auto *FD = dynCastDecl<FunctionDecl>(DR->decl())) {
        FD->setAddressTaken();
        return Operand::makeFunction(FD, Types.pointerTo(FD->type()));
      }
      auto *VD = dynCastDecl<VarDecl>(DR->decl());
      if (!VD) {
        Diags.error(E->loc(), "unsupported declaration reference");
        return Operand::makeInt(0, Types.intType());
      }
      Reference R = varRef(VD);
      if (R.Ty->isArray())
        R = decayArrayRef(std::move(R));
      return refOperand(R);
    }
    case Expr::Kind::Unary:
      return lowerUnary(castExpr<UnaryExpr>(E));
    case Expr::Kind::Binary:
      return lowerBinary(castExpr<BinaryExpr>(E));
    case Expr::Kind::Assign:
      return lowerAssign(castExpr<AssignExpr>(E));
    case Expr::Kind::Conditional: {
      auto *C = castExpr<ConditionalExpr>(E);
      const Type *Ty = E->type();
      const VarDecl *T = makeTemp(Ty, E->loc());
      Operand Cond = lowerCondition(C->cond());
      BlockStmt *ThenB = pushBlock(E->loc());
      emitAssignOperand(varRef(T), lowerExpr(C->thenExpr()), E->loc());
      popBlock();
      BlockStmt *ElseB = pushBlock(E->loc());
      emitAssignOperand(varRef(T), lowerExpr(C->elseExpr()), E->loc());
      popBlock();
      emit(Prog->create<IfStmt>(E->loc(), std::move(Cond), ThenB, ElseB));
      return refOperand(varRef(T));
    }
    case Expr::Kind::Call: {
      auto *CE = castExpr<CallExpr>(E);
      const Type *Ty = E->type()->isVoid() ? Types.intType() : E->type();
      const VarDecl *T = makeTemp(Ty, E->loc());
      emitCallAssign(varRef(T), CE);
      return refOperand(varRef(T));
    }
    case Expr::Kind::Member:
    case Expr::Kind::ArraySubscript: {
      Reference R = lowerLvalue(E);
      if (R.Ty && R.Ty->isArray())
        R = decayArrayRef(std::move(R));
      return refOperand(R);
    }
    case Expr::Kind::Cast: {
      auto *C = castExpr<CastExpr>(E);
      Operand Op = lowerExpr(C->sub());
      const Type *DstTy = E->type();
      if (DstTy->isPointer() && Op.K == Operand::Kind::IntConst) {
        if (Op.IntValue == 0)
          return Operand::makeNull(DstTy);
        Diags.warning(E->loc(),
                      "cast of non-zero integer to pointer yields an "
                      "unknown target; no points-to pair is recorded");
      }
      Op.Ty = DstTy;
      return Op;
    }
    case Expr::Kind::InitList:
      Diags.error(E->loc(), "initializer list in expression context");
      return Operand::makeInt(0, Types.intType());
    }
    return Operand::makeInt(0, Types.intType());
  }

  Operand lowerUnary(UnaryExpr *U) {
    SourceLoc Loc = U->loc();
    switch (U->op()) {
    case UnaryOp::AddrOf: {
      // &function handled via DeclRef lowering below.
      if (auto *DR = dynCastExpr<DeclRefExpr>(U->sub()))
        if (auto *FD = dynCastDecl<FunctionDecl>(DR->decl())) {
          FD->setAddressTaken();
          return Operand::makeFunction(FD, Types.pointerTo(FD->type()));
        }
      Reference R = lowerLvalue(U->sub());
      if (R.AddrOf) {
        Diags.error(Loc, "cannot take address of address value");
        return refOperand(R);
      }
      R.AddrOf = true;
      R.Ty = U->type();
      return refOperand(R);
    }
    case UnaryOp::Deref: {
      // Deref of a function pointer in value position denotes the
      // function itself; keep the pointer value.
      if (U->type()->isFunction())
        return lowerExpr(U->sub());
      Reference R = lowerLvalue(U);
      if (R.Ty && R.Ty->isArray())
        R = decayArrayRef(std::move(R));
      return refOperand(R);
    }
    case UnaryOp::Plus:
      return lowerExpr(U->sub());
    case UnaryOp::Minus:
    case UnaryOp::Not:
    case UnaryOp::BitNot: {
      Operand Sub = lowerExpr(U->sub());
      const VarDecl *T = makeTemp(U->type(), Loc);
      auto *S = Prog->create<AssignStmt>(Loc, varRef(T));
      S->RK = AssignStmt::RhsKind::Unary;
      S->UOp = U->op();
      S->A = std::move(Sub);
      emit(S);
      return refOperand(varRef(T));
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec: {
      Reference Lv = lowerLvalue(U->sub());
      emitIncDec(Lv, U->op() == UnaryOp::PreInc, Loc);
      return refOperand(Lv);
    }
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      Reference Lv = lowerLvalue(U->sub());
      Operand Old = materializeTo(Lv.Ty, refOperand(Lv), Loc);
      emitIncDec(Lv, U->op() == UnaryOp::PostInc, Loc);
      return Old;
    }
    }
    return Operand::makeInt(0, Types.intType());
  }

  void emitIncDec(const Reference &Lv, bool IsInc, SourceLoc Loc) {
    auto *S = Prog->create<AssignStmt>(Loc, Lv);
    S->RK = AssignStmt::RhsKind::Binary;
    S->BOp = IsInc ? BinaryOp::Add : BinaryOp::Sub;
    S->A = refOperand(Lv);
    S->B = Operand::makeInt(1, Types.intType());
    emit(S);
  }

  Operand lowerBinary(BinaryExpr *B) {
    SourceLoc Loc = B->loc();
    if (B->op() == BinaryOp::Comma) {
      lowerExpr(B->lhs());
      return lowerExpr(B->rhs());
    }
    if ((B->op() == BinaryOp::LogAnd || B->op() == BinaryOp::LogOr) &&
        hasSideEffects(B->rhs())) {
      // Control-flow lowering preserves the guard for side effects:
      //   t = a; if (t) t = (b != 0);      (&&)
      //   t = a; if (!t) t = (b != 0);     (||) — via inverted temp
      const VarDecl *T = makeTemp(Types.intType(), Loc);
      Operand A = lowerExpr(B->lhs());
      emitAssignOperand(varRef(T), std::move(A), Loc);
      Operand Guard = refOperand(varRef(T));
      if (B->op() == BinaryOp::LogOr) {
        const VarDecl *Inv = makeTemp(Types.intType(), Loc);
        auto *S = Prog->create<AssignStmt>(Loc, varRef(Inv));
        S->RK = AssignStmt::RhsKind::Unary;
        S->UOp = UnaryOp::Not;
        S->A = refOperand(varRef(T));
        emit(S);
        Guard = refOperand(varRef(Inv));
      }
      BlockStmt *ThenB = pushBlock(Loc);
      emitAssignOperand(varRef(T), lowerExpr(B->rhs()), Loc);
      popBlock();
      emit(Prog->create<IfStmt>(Loc, std::move(Guard), ThenB, nullptr));
      return refOperand(varRef(T));
    }
    Operand A = lowerExpr(B->lhs());
    Operand BOp = lowerExpr(B->rhs());
    const VarDecl *T = makeTemp(B->type(), Loc);
    auto *S = Prog->create<AssignStmt>(Loc, varRef(T));
    S->RK = AssignStmt::RhsKind::Binary;
    S->BOp = B->op();
    S->A = std::move(A);
    S->B = std::move(BOp);
    emit(S);
    return refOperand(varRef(T));
  }

  Operand lowerAssign(AssignExpr *A) {
    SourceLoc Loc = A->loc();
    Reference Lhs = lowerLvalue(A->lhs());
    if (A->op() == AssignOp::Assign) {
      emitStore(Lhs, A->rhs(), Loc);
    } else {
      static const BinaryOp OpMap[] = {
          BinaryOp::Add /*unused: Assign*/, BinaryOp::Add, BinaryOp::Sub,
          BinaryOp::Mul, BinaryOp::Div, BinaryOp::Rem, BinaryOp::Shl,
          BinaryOp::Shr, BinaryOp::BitAnd, BinaryOp::BitOr,
          BinaryOp::BitXor};
      Operand Rhs = lowerExpr(A->rhs());
      auto *S = Prog->create<AssignStmt>(Loc, Lhs);
      S->RK = AssignStmt::RhsKind::Binary;
      S->BOp = OpMap[static_cast<int>(A->op())];
      S->A = refOperand(Lhs);
      S->B = std::move(Rhs);
      emit(S);
    }
    return refOperand(Lhs);
  }

  /// Stores the value of Rhs into Lhs, handling call/alloc rhs directly.
  void emitStore(const Reference &Lhs, Expr *Rhs, SourceLoc Loc) {
    if (auto *CE = dynCastExpr<CallExpr>(Rhs)) {
      emitCallAssign(Lhs, CE);
      return;
    }
    if (auto *C = dynCastExpr<CastExpr>(Rhs))
      if (auto *CE = dynCastExpr<CallExpr>(C->sub())) {
        emitCallAssign(Lhs, CE);
        return;
      }
    emitAssignOperand(Lhs, lowerExpr(Rhs), Loc);
  }

  /// Lowers a condition to an operand (usually a plain variable).
  Operand lowerCondition(Expr *E) {
    Operand Op = lowerExpr(E);
    if (Op.isRef() && !Op.Ref.Deref && !Op.Ref.AddrOf && Op.Ref.Path.empty())
      return Op;
    if (Op.K != Operand::Kind::Ref)
      return Op; // constant condition
    return materializeTo(Op.Ty ? Op.Ty : Types.intType(), std::move(Op),
                         E->loc());
  }

  /// Lowers a condition to a plain variable and returns it, emitting the
  /// evaluation code into the current block. Returns null for a constant
  /// non-zero condition (infinite loop) .
  const VarDecl *lowerLoopCondition(Expr *E, SourceLoc Loc,
                                    const VarDecl *Into) {
    if (!E)
      return nullptr;
    if (const auto *IL = dynCastExpr<IntLiteralExpr>(E))
      if (IL->value() != 0)
        return nullptr;
    Operand Op = lowerExpr(E);
    const VarDecl *T = Into ? Into : makeTemp(Types.intType(), Loc);
    emitAssignOperand(varRef(T), std::move(Op), Loc);
    return T;
  }

  //===--------------------------------------------------------------------===//
  // Initializers
  //===--------------------------------------------------------------------===//

  void lowerInit(const Reference &Target, Expr *Init) {
    if (auto *IL = dynCastExpr<InitListExpr>(Init)) {
      const Type *Ty = Target.Ty;
      if (const auto *AT = dynCast<ArrayType>(Ty)) {
        unsigned I = 0;
        for (Expr *Elem : IL->inits()) {
          Reference ER = Target;
          ER.Path.push_back(Accessor::index(
              I == 0 ? IndexKind::Zero : IndexKind::Positive, I));
          ER.Ty = AT->element();
          lowerInit(ER, Elem);
          ++I;
        }
        return;
      }
      if (const auto *RT = dynCast<RecordType>(Ty)) {
        const auto &Fields = RT->decl()->fields();
        for (unsigned I = 0; I < IL->inits().size() && I < Fields.size();
             ++I) {
          Reference FR = Target;
          FR.Path.push_back(Accessor::field(Fields[I]));
          FR.Ty = Fields[I]->type();
          lowerInit(FR, IL->inits()[I]);
        }
        return;
      }
      if (!IL->inits().empty())
        lowerInit(Target, IL->inits()[0]);
      return;
    }
    emitStore(Target, Init, Init->loc());
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void lowerStmt(cfront::Stmt *S) {
    switch (S->kind()) {
    case cfront::Stmt::Kind::Compound: {
      for (cfront::Stmt *Child : castStmt<cfront::CompoundStmt>(S)->body())
        lowerStmt(Child);
      return;
    }
    case cfront::Stmt::Kind::Decl: {
      for (VarDecl *V : castStmt<cfront::DeclStmt>(S)->vars()) {
        if (V->storage() != VarDecl::Storage::Global && CurIR)
          CurIR->Locals.push_back(V);
        if (V->init())
          lowerInit(varRef(V), V->init());
      }
      return;
    }
    case cfront::Stmt::Kind::Expr: {
      Expr *E = castStmt<cfront::ExprStmt>(S)->expr();
      lowerExprStmt(E);
      return;
    }
    case cfront::Stmt::Kind::If: {
      auto *I = castStmt<cfront::IfStmt>(S);
      Operand Cond = lowerCondition(I->cond());
      BlockStmt *ThenB = pushBlock(S->loc());
      lowerStmt(I->thenStmt());
      popBlock();
      BlockStmt *ElseB = nullptr;
      if (I->elseStmt()) {
        ElseB = pushBlock(S->loc());
        lowerStmt(I->elseStmt());
        popBlock();
      }
      emit(Prog->create<IfStmt>(S->loc(), std::move(Cond), ThenB, ElseB));
      return;
    }
    case cfront::Stmt::Kind::While: {
      auto *W = castStmt<cfront::WhileStmt>(S);
      const VarDecl *CondVar =
          lowerLoopCondition(W->cond(), S->loc(), nullptr);
      auto *L = Prog->create<LoopStmt>(S->loc());
      L->CondVar = CondVar;
      L->PostTest = false;
      pushBlock(S->loc());
      lowerStmt(W->body());
      L->Body = popBlock();
      if (CondVar) {
        pushBlock(S->loc());
        lowerLoopCondition(W->cond(), S->loc(), CondVar);
        L->Trailer = popBlock();
      }
      emit(L);
      return;
    }
    case cfront::Stmt::Kind::Do: {
      auto *D = castStmt<cfront::DoStmt>(S);
      auto *L = Prog->create<LoopStmt>(S->loc());
      L->PostTest = true;
      pushBlock(S->loc());
      lowerStmt(D->body());
      L->Body = popBlock();
      // Pre-compute the condition variable name by lowering into the
      // trailer; a constant-true condition leaves CondVar null.
      pushBlock(S->loc());
      L->CondVar = lowerLoopCondition(D->cond(), S->loc(), nullptr);
      L->Trailer = popBlock();
      if (L->Trailer && castStmt<BlockStmt>(L->Trailer)->Body.empty())
        L->Trailer = nullptr;
      emit(L);
      return;
    }
    case cfront::Stmt::Kind::For: {
      auto *F = castStmt<cfront::ForStmt>(S);
      if (F->init())
        lowerStmt(F->init());
      const VarDecl *CondVar =
          lowerLoopCondition(F->cond(), S->loc(), nullptr);
      auto *L = Prog->create<LoopStmt>(S->loc());
      L->CondVar = CondVar;
      L->PostTest = false;
      pushBlock(S->loc());
      lowerStmt(F->body());
      L->Body = popBlock();
      pushBlock(S->loc());
      if (F->inc())
        lowerExprStmt(F->inc());
      if (CondVar)
        lowerLoopCondition(F->cond(), S->loc(), CondVar);
      L->Trailer = popBlock();
      if (castStmt<BlockStmt>(L->Trailer)->Body.empty())
        L->Trailer = nullptr;
      emit(L);
      return;
    }
    case cfront::Stmt::Kind::Switch: {
      auto *Sw = castStmt<cfront::SwitchStmt>(S);
      Operand Cond = lowerCondition(Sw->cond());
      auto *SS = Prog->create<SwitchStmt>(S->loc(), std::move(Cond));
      for (const cfront::SwitchCase &C : Sw->cases()) {
        SwitchStmt::Case SC;
        SC.Values = C.Values;
        SC.IsDefault = C.IsDefault;
        BlockStmt *B = pushBlock(S->loc());
        for (cfront::Stmt *Child : C.Body)
          lowerStmt(Child);
        popBlock();
        SC.Body = B->Body;
        SS->Cases.push_back(std::move(SC));
      }
      emit(SS);
      return;
    }
    case cfront::Stmt::Kind::Break:
      emit(Prog->create<BreakStmt>(S->loc()));
      return;
    case cfront::Stmt::Kind::Continue:
      emit(Prog->create<ContinueStmt>(S->loc()));
      return;
    case cfront::Stmt::Kind::Return: {
      auto *R = castStmt<cfront::ReturnStmt>(S);
      std::optional<Operand> Value;
      if (R->value()) {
        Operand Op = lowerExpr(R->value());
        Op = coerce(std::move(Op), CurFunction->returnType());
        // Return operands are constants or plain variables, like args.
        if (Op.isRef() && (Op.Ref.Deref || Op.Ref.AddrOf ||
                           !Op.Ref.Path.empty()))
          Op = materializeTo(Op.Ty, std::move(Op), S->loc());
        else if (Op.K == Operand::Kind::FunctionAddr)
          Op = materializeTo(Types.pointerTo(Op.Fn->type()), std::move(Op),
                             S->loc());
        Value = std::move(Op);
      }
      emit(Prog->create<simple::ReturnStmt>(S->loc(), std::move(Value)));
      return;
    }
    case cfront::Stmt::Kind::Null:
      return;
    }
  }

  /// Statement-position expression: avoid dead result temps for calls
  /// and assignments.
  void lowerExprStmt(Expr *E) {
    if (auto *CE = dynCastExpr<CallExpr>(E)) {
      if (isAllocatorCall(CE)) {
        // Result discarded; still model the allocation? A discarded
        // malloc has no points-to effect.
        for (Expr *Arg : CE->args())
          if (hasSideEffects(Arg))
            lowerExpr(Arg);
        return;
      }
      emit(Prog->create<CallStmt>(E->loc(), lowerCallInfo(CE)));
      return;
    }
    if (auto *A = dynCastExpr<AssignExpr>(E)) {
      lowerAssign(A);
      return;
    }
    lowerExpr(E);
  }

  //===--------------------------------------------------------------------===//
  // Top level
  //===--------------------------------------------------------------------===//

  void simplifyFunction(FunctionDecl *FD, FunctionIR &FIR) {
    CurFunction = FD;
    CurIR = &FIR;

    FIR.Decl = FD;
    pushBlock(FD->loc());
    lowerStmt(FD->body());
    FIR.Body = popBlock();
    forEachStmt(FIR.Body, [&FIR](const Stmt *S) {
      if (const CallInfo *CI = callOf(S))
        FIR.Calls.push_back(CI);
    });
    CurFunction = nullptr;
    CurIR = nullptr;
  }

  std::unique_ptr<Program> run() {
    Prog = std::make_unique<Program>(Unit);
    for (const VarDecl *G : Unit.globals())
      Prog->addGlobal(G);

    // Reserve function IR slots first so global-init temps can be owned
    // by main if needed.
    std::vector<FunctionDecl *> Defined;
    for (FunctionDecl *FD : Unit.functions())
      if (FD->isDefined())
        Defined.push_back(FD);

    FunctionDecl *Main = Unit.findFunction("main");

    Prog->functions().resize(Defined.size());
    FunctionIR *MainIR = nullptr;
    for (size_t I = 0; I < Defined.size(); ++I) {
      Prog->functions()[I].Decl = Defined[I];
      if (Defined[I] == Main)
        MainIR = &Prog->functions()[I];
    }

    CurFunction = Main;
    CurIR = MainIR;

    BlockStmt *InitB = pushBlock(SourceLoc());
    for (const VarDecl *G : Unit.globals())
      if (G->init())
        lowerInit(varRef(G), const_cast<VarDecl *>(G)->init());
    popBlock();
    Prog->setGlobalInit(InitB);
    CurFunction = nullptr;
    CurIR = nullptr;

    for (FunctionIR &FIR : Prog->functions())
      simplifyFunction(const_cast<FunctionDecl *>(FIR.Decl), FIR);

    if (Diags.hasErrors())
      return nullptr;
    return std::move(Prog);
  }
};

Simplifier::Simplifier(TranslationUnit &Unit, DiagnosticsEngine &Diags)
    : PImpl(std::make_unique<Impl>(Unit, Diags)) {}

Simplifier::~Simplifier() = default;

std::unique_ptr<Program> Simplifier::run() { return PImpl->run(); }
