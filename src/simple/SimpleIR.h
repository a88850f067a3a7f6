//===- SimpleIR.h - SIMPLE intermediate representation ----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMPLE intermediate representation (Sec. 2 of the paper). SIMPLE
/// is a structured (compositional) IR: complex statements are compiled
/// into sequences of *basic statements* whose variable references have at
/// most one level of pointer indirection, plus explicit compositional
/// control statements (if, loop, switch, break, continue, return).
///
/// The reference forms match Table 1 of the paper: a, a.f, a[i], *a,
/// (*a).f, (*a)[i], and &-of those, generalized to arbitrary field/index
/// paths after the (at most one) dereference.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SIMPLE_SIMPLEIR_H
#define MCPTA_SIMPLE_SIMPLEIR_H

#include "cfront/AST.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mcpta {
namespace simple {

//===----------------------------------------------------------------------===//
// References and operands
//===----------------------------------------------------------------------===//

/// How much is known about an array subscript. The points-to analysis
/// only distinguishes index 0 (the a_head abstract location), a known
/// positive index (within a_tail), and an unknown index (either).
enum class IndexKind { Zero, Positive, Unknown };

/// One step of a reference path after the base variable (and optional
/// dereference): a struct field selection or an array subscript.
///
/// Index accessors additionally carry the concrete subscript (a
/// constant, or the temp variable the simplifier lowered the index
/// expression into). The points-to analysis only consults IndexKind;
/// the concrete SIMPLE interpreter (the soundness oracle) consults the
/// concrete subscript.
struct Accessor {
  enum class Kind { Field, Index };
  Kind K = Kind::Field;
  const cfront::FieldDecl *Field = nullptr;
  IndexKind Index = IndexKind::Unknown;
  long long IndexConst = 0;                    ///< valid when !IndexVar
  const cfront::VarDecl *IndexVar = nullptr;   ///< runtime subscript
  /// Distinguishes the two C subscript semantics: p[i] on a pointer
  /// *shifts* across sibling cells of the pointed-to object (pointer
  /// arithmetic); a[i] on an array lvalue *selects* an element inside
  /// the aggregate. Only the simplifier knows which one the source
  /// meant, so it records the choice here.
  bool IsShift = false;

  static Accessor field(const cfront::FieldDecl *F) {
    Accessor A;
    A.K = Kind::Field;
    A.Field = F;
    return A;
  }
  static Accessor index(IndexKind IK, long long Const = 0,
                        const cfront::VarDecl *Var = nullptr) {
    Accessor A;
    A.K = Kind::Index;
    A.Index = IK;
    A.IndexConst = Const;
    A.IndexVar = Var;
    return A;
  }
  static Accessor shiftIndex(IndexKind IK, long long Const = 0,
                             const cfront::VarDecl *Var = nullptr) {
    Accessor A = index(IK, Const, Var);
    A.IsShift = true;
    return A;
  }
  bool operator==(const Accessor &O) const {
    return K == O.K && Field == O.Field &&
           (K == Kind::Field || Index == O.Index);
  }
};

/// A SIMPLE variable reference. Invariant (paper Sec. 2): at most one
/// level of pointer indirection — either Deref is false, or Deref is true
/// and Base is a plain (pointer-typed) variable.
struct Reference {
  const cfront::VarDecl *Base = nullptr;
  bool Deref = false;
  std::vector<Accessor> Path;
  /// &ref — the value is the address of the referenced location.
  bool AddrOf = false;
  /// Type of the reference's value.
  const cfront::Type *Ty = nullptr;

  bool isValid() const { return Base != nullptr; }
  /// An indirect reference in the sense of the paper's Table 3: the
  /// dereferenced pointer is consulted to find the accessed location.
  bool isIndirect() const { return Deref && !AddrOf; }
  std::string str() const;
};

/// Right-hand-side / argument operand: a reference or a constant.
struct Operand {
  enum class Kind {
    Ref,
    IntConst,
    FloatConst,
    NullConst,
    StringConst,
    FunctionAddr,
  };
  Kind K = Kind::IntConst;
  Reference Ref;
  long long IntValue = 0;
  double FloatValue = 0;
  unsigned StringId = 0; // index into Program::stringLiterals()
  const cfront::FunctionDecl *Fn = nullptr;
  const cfront::Type *Ty = nullptr;

  static Operand makeRef(Reference R) {
    Operand O;
    O.K = Kind::Ref;
    O.Ty = R.Ty;
    O.Ref = std::move(R);
    return O;
  }
  static Operand makeInt(long long V, const cfront::Type *Ty) {
    Operand O;
    O.K = Kind::IntConst;
    O.IntValue = V;
    O.Ty = Ty;
    return O;
  }
  static Operand makeFloat(double V, const cfront::Type *Ty) {
    Operand O;
    O.K = Kind::FloatConst;
    O.FloatValue = V;
    O.Ty = Ty;
    return O;
  }
  static Operand makeNull(const cfront::Type *Ty) {
    Operand O;
    O.K = Kind::NullConst;
    O.Ty = Ty;
    return O;
  }
  static Operand makeString(unsigned Id, const cfront::Type *Ty) {
    Operand O;
    O.K = Kind::StringConst;
    O.StringId = Id;
    O.Ty = Ty;
    return O;
  }
  static Operand makeFunction(const cfront::FunctionDecl *F,
                              const cfront::Type *Ty) {
    Operand O;
    O.K = Kind::FunctionAddr;
    O.Fn = F;
    O.Ty = Ty;
    return O;
  }

  bool isRef() const { return K == Kind::Ref; }
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt;

/// A call, either direct (Callee set) or through a function pointer
/// (FnPtr set — always a plain scalar variable reference after
/// simplification, which is exactly the shape the paper's 'livc'
/// benchmark discussion describes).
struct CallInfo {
  const cfront::FunctionDecl *Callee = nullptr;
  Reference FnPtr;
  std::vector<Operand> Args;
  /// Dense program-wide call-site number (Table 6 statistics).
  unsigned CallSiteId = 0;
  /// Calls like exit() that never return.
  bool NoReturn = false;

  bool isIndirect() const { return Callee == nullptr; }
};

/// Base class of SIMPLE statements. Each statement has a dense
/// program-wide Id used to attach analysis results.
class Stmt {
public:
  enum class Kind {
    Assign,
    Call,   // call with unused result
    Return,
    Block,
    If,
    Loop,
    Switch,
    Break,
    Continue,
  };

  Kind kind() const { return K; }
  unsigned id() const { return Id; }
  SourceLoc loc() const { return Loc; }
  virtual ~Stmt() = default;

  /// Basic statements are the unit of the paper's per-statement
  /// statistics (Tables 2 and 5).
  bool isBasic() const {
    return K == Kind::Assign || K == Kind::Call || K == Kind::Return;
  }

protected:
  Stmt(Kind K, unsigned Id, SourceLoc Loc) : K(K), Id(Id), Loc(Loc) {}

private:
  Kind K;
  unsigned Id;
  SourceLoc Loc;
};

template <typename To> To *dynCastStmt(Stmt *S) {
  if (S && To::classof(S))
    return static_cast<To *>(S);
  return nullptr;
}
template <typename To> const To *dynCastStmt(const Stmt *S) {
  if (S && To::classof(S))
    return static_cast<const To *>(S);
  return nullptr;
}
template <typename To> To *castStmt(Stmt *S) {
  assert(S && To::classof(S) && "invalid stmt cast");
  return static_cast<To *>(S);
}
template <typename To> const To *castStmt(const Stmt *S) {
  assert(S && To::classof(S) && "invalid stmt cast");
  return static_cast<const To *>(S);
}

/// lhs = rhs. The rhs is one of: a plain operand, a unary/binary
/// expression over operands, a heap allocation, or a call.
class AssignStmt : public Stmt {
public:
  enum class RhsKind { Operand, Unary, Binary, Alloc, Call };

  AssignStmt(unsigned Id, SourceLoc Loc, Reference Lhs)
      : Stmt(Kind::Assign, Id, Loc), Lhs(std::move(Lhs)) {}

  Reference Lhs;
  RhsKind RK = RhsKind::Operand;
  Operand A; // Operand / Unary operand / Binary lhs
  Operand B; // Binary rhs
  cfront::UnaryOp UOp = cfront::UnaryOp::Plus;
  cfront::BinaryOp BOp = cfront::BinaryOp::Add;
  CallInfo Call;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }
};

/// A call whose result is discarded.
class CallStmt : public Stmt {
public:
  CallStmt(unsigned Id, SourceLoc Loc, CallInfo CI)
      : Stmt(Kind::Call, Id, Loc), Call(std::move(CI)) {}

  CallInfo Call;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Call; }
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(unsigned Id, SourceLoc Loc, std::optional<Operand> Value)
      : Stmt(Kind::Return, Id, Loc), Value(std::move(Value)) {}

  std::optional<Operand> Value;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }
};

class BlockStmt : public Stmt {
public:
  BlockStmt(unsigned Id, SourceLoc Loc) : Stmt(Kind::Block, Id, Loc) {}

  std::vector<Stmt *> Body;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Block; }
};

class IfStmt : public Stmt {
public:
  IfStmt(unsigned Id, SourceLoc Loc, Operand Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If, Id, Loc), Cond(std::move(Cond)), Then(Then),
        Else(Else) {}

  Operand Cond;
  Stmt *Then;
  Stmt *Else; // may be null

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }
};

/// Unified structured loop covering while/do/for.
///
/// Semantics:
///   - PostTest == false (while/for):
///       test CondVar; if false exit; Body; Trailer; test CondVar; ...
///     The simplifier emits the initial condition evaluation *before*
///     the loop, and Trailer re-evaluates it (plus the for-step).
///   - PostTest == true (do-while):
///       Body; Trailer; test CondVar; Body; ...
///   - CondVar == nullptr: infinite loop (exits only via break/return).
///
/// `continue` transfers to the Trailer; `break` exits the loop.
class LoopStmt : public Stmt {
public:
  LoopStmt(unsigned Id, SourceLoc Loc)
      : Stmt(Kind::Loop, Id, Loc) {}

  const cfront::VarDecl *CondVar = nullptr;
  Stmt *Body = nullptr;
  Stmt *Trailer = nullptr; // may be null; straight-line code only
  bool PostTest = false;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Loop; }
};

class SwitchStmt : public Stmt {
public:
  struct Case {
    std::vector<long long> Values;
    bool IsDefault = false;
    std::vector<Stmt *> Body;
  };

  SwitchStmt(unsigned Id, SourceLoc Loc, Operand Cond)
      : Stmt(Kind::Switch, Id, Loc), Cond(std::move(Cond)) {}

  Operand Cond;
  std::vector<Case> Cases;
  bool hasDefault() const {
    for (const Case &C : Cases)
      if (C.IsDefault)
        return true;
    return false;
  }

  static bool classof(const Stmt *S) { return S->kind() == Kind::Switch; }
};

class BreakStmt : public Stmt {
public:
  BreakStmt(unsigned Id, SourceLoc Loc) : Stmt(Kind::Break, Id, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  ContinueStmt(unsigned Id, SourceLoc Loc) : Stmt(Kind::Continue, Id, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

//===----------------------------------------------------------------------===//
// Functions and program
//===----------------------------------------------------------------------===//

/// SIMPLE form of one function.
struct FunctionIR {
  const cfront::FunctionDecl *Decl = nullptr;
  BlockStmt *Body = nullptr;
  /// All locals, including simplifier temporaries, in declaration order.
  std::vector<const cfront::VarDecl *> Locals;
  /// The body's call sites in program order (preorder statement walk),
  /// collected once at lowering.
  std::vector<const CallInfo *> Calls;
};

/// A whole simplified program. Owns all SIMPLE statements and any
/// VarDecls created during simplification (temporaries).
class Program {
public:
  explicit Program(cfront::TranslationUnit &Unit) : Unit(&Unit) {}

  cfront::TranslationUnit &unit() const { return *Unit; }

  const std::vector<FunctionIR> &functions() const { return Funcs; }
  std::vector<FunctionIR> &functions() { return Funcs; }
  const FunctionIR *findFunction(const cfront::FunctionDecl *F) const;

  const std::vector<const cfront::VarDecl *> &globals() const {
    return Globals;
  }
  void addGlobal(const cfront::VarDecl *G) { Globals.push_back(G); }

  /// Global-variable initializers, lowered to assignments; analyzed
  /// before main's body.
  BlockStmt *globalInit() const { return GlobalInit; }
  void setGlobalInit(BlockStmt *B) { GlobalInit = B; }

  const std::vector<std::string> &stringLiterals() const { return Strings; }
  unsigned internString(std::string S) {
    Strings.push_back(std::move(S));
    return static_cast<unsigned>(Strings.size() - 1);
  }

  template <typename T, typename... Args> T *create(Args &&...As) {
    auto Node = std::make_unique<T>(NextStmtId++, std::forward<Args>(As)...);
    T *Ptr = Node.get();
    AllStmts.push_back(Ptr);
    OwnedStmts.push_back(std::move(Node));
    return Ptr;
  }

  const std::vector<Stmt *> &allStmts() const { return AllStmts; }
  unsigned numStmts() const { return NextStmtId; }

  unsigned allocCallSiteId() { return NextCallSiteId++; }
  unsigned numCallSites() const { return NextCallSiteId; }

  /// Number of basic statements (Table 2's "# of stmts in SIMPLE").
  unsigned numBasicStmts() const;

  std::string str() const;

private:
  cfront::TranslationUnit *Unit;
  std::vector<FunctionIR> Funcs;
  std::vector<const cfront::VarDecl *> Globals;
  std::vector<std::string> Strings;
  BlockStmt *GlobalInit = nullptr;
  std::vector<Stmt *> AllStmts;
  std::vector<std::unique_ptr<Stmt>> OwnedStmts;
  unsigned NextStmtId = 0;
  unsigned NextCallSiteId = 0;
};

/// Pretty-prints a statement tree (used by tests and the pta-tool
/// --dump-simple mode).
std::string printStmt(const Stmt *S, unsigned Indent = 0);

/// Preorder walk over a statement tree: a statement first, then its
/// children in program order (compound statements included). Null
/// subtrees are skipped.
template <typename Fn> void forEachStmt(const Stmt *S, Fn &&F) {
  if (!S)
    return;
  F(S);
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const Stmt *C : castStmt<BlockStmt>(S)->Body)
      forEachStmt(C, F);
    return;
  case Stmt::Kind::If: {
    const auto *I = castStmt<IfStmt>(S);
    forEachStmt(I->Then, F);
    forEachStmt(I->Else, F);
    return;
  }
  case Stmt::Kind::Loop: {
    const auto *L = castStmt<LoopStmt>(S);
    forEachStmt(L->Body, F);
    forEachStmt(L->Trailer, F);
    return;
  }
  case Stmt::Kind::Switch:
    for (const SwitchStmt::Case &C : castStmt<SwitchStmt>(S)->Cases)
      for (const Stmt *B : C.Body)
        forEachStmt(B, F);
    return;
  default:
    return;
  }
}

/// The call of a basic statement (a call statement or a call
/// assignment), or null.
inline const CallInfo *callOf(const Stmt *S) {
  if (const auto *C = dynCastStmt<CallStmt>(S))
    return &C->Call;
  if (const auto *A = dynCastStmt<AssignStmt>(S))
    if (A->RK == AssignStmt::RhsKind::Call)
      return &A->Call;
  return nullptr;
}

/// Visits every Operand of a statement tree in a fixed order.
template <typename Fn> void walkOperands(const Stmt *Root, Fn F) {
  forEachStmt(Root, [&](const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Assign: {
      const auto *A = castStmt<AssignStmt>(S);
      if (A->RK == AssignStmt::RhsKind::Call) {
        for (const Operand &Arg : A->Call.Args)
          F(Arg);
        return;
      }
      F(A->A);
      if (A->RK == AssignStmt::RhsKind::Binary)
        F(A->B);
      return;
    }
    case Stmt::Kind::Call:
      for (const Operand &Arg : castStmt<CallStmt>(S)->Call.Args)
        F(Arg);
      return;
    case Stmt::Kind::Return: {
      const auto *R = castStmt<ReturnStmt>(S);
      if (R->Value)
        F(*R->Value);
      return;
    }
    case Stmt::Kind::If:
      F(castStmt<IfStmt>(S)->Cond);
      return;
    case Stmt::Kind::Switch:
      F(castStmt<SwitchStmt>(S)->Cond);
      return;
    default:
      return;
    }
  });
}

/// main's SIMPLE form, or null when the program defines no main.
const FunctionIR *findMain(const Program &Prog);

} // namespace simple
} // namespace mcpta

#endif // MCPTA_SIMPLE_SIMPLEIR_H
