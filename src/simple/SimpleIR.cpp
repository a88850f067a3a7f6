//===- SimpleIR.cpp - SIMPLE intermediate representation -------------------===//

#include "simple/SimpleIR.h"

using namespace mcpta;
using namespace mcpta::simple;

std::string Reference::str() const {
  std::string S;
  if (AddrOf)
    S += "&";
  std::string Core = Base ? Base->name() : "<null>";
  if (Deref)
    Core = "(*" + Core + ")";
  for (const Accessor &A : Path) {
    if (A.K == Accessor::Kind::Field) {
      Core += ".";
      Core += A.Field->name();
    } else {
      switch (A.Index) {
      case IndexKind::Zero: Core += "[0]"; break;
      case IndexKind::Positive: Core += "[+]"; break;
      case IndexKind::Unknown: Core += "[?]"; break;
      }
    }
  }
  return S + Core;
}

std::string Operand::str() const {
  switch (K) {
  case Kind::Ref:
    return Ref.str();
  case Kind::IntConst:
    return std::to_string(IntValue);
  case Kind::FloatConst:
    return std::to_string(FloatValue);
  case Kind::NullConst:
    return "NULL";
  case Kind::StringConst:
    return "str#" + std::to_string(StringId);
  case Kind::FunctionAddr:
    return "&" + Fn->name();
  }
  return "?";
}

static const char *binOpName(cfront::BinaryOp Op) {
  using BO = cfront::BinaryOp;
  switch (Op) {
  case BO::Add: return "+";
  case BO::Sub: return "-";
  case BO::Mul: return "*";
  case BO::Div: return "/";
  case BO::Rem: return "%";
  case BO::Shl: return "<<";
  case BO::Shr: return ">>";
  case BO::Lt: return "<";
  case BO::Gt: return ">";
  case BO::Le: return "<=";
  case BO::Ge: return ">=";
  case BO::Eq: return "==";
  case BO::Ne: return "!=";
  case BO::BitAnd: return "&";
  case BO::BitXor: return "^";
  case BO::BitOr: return "|";
  case BO::LogAnd: return "&&";
  case BO::LogOr: return "||";
  case BO::Comma: return ",";
  }
  return "?";
}

static const char *unOpName(cfront::UnaryOp Op) {
  using UO = cfront::UnaryOp;
  switch (Op) {
  case UO::Minus: return "-";
  case UO::Not: return "!";
  case UO::BitNot: return "~";
  default: return "?";
  }
}

static std::string callString(const CallInfo &CI) {
  std::string S;
  if (CI.isIndirect())
    S = "(*" + CI.FnPtr.str() + ")";
  else
    S = CI.Callee->name();
  S += "(";
  bool First = true;
  for (const Operand &A : CI.Args) {
    if (!First)
      S += ", ";
    S += A.str();
    First = false;
  }
  S += ")";
  return S;
}

std::string mcpta::simple::printStmt(const Stmt *S, unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (S->kind()) {
  case Stmt::Kind::Assign: {
    const auto *A = castStmt<AssignStmt>(S);
    std::string Rhs;
    switch (A->RK) {
    case AssignStmt::RhsKind::Operand:
      Rhs = A->A.str();
      break;
    case AssignStmt::RhsKind::Unary:
      Rhs = std::string(unOpName(A->UOp)) + A->A.str();
      break;
    case AssignStmt::RhsKind::Binary:
      Rhs = A->A.str() + " " + binOpName(A->BOp) + " " + A->B.str();
      break;
    case AssignStmt::RhsKind::Alloc:
      Rhs = "malloc()";
      break;
    case AssignStmt::RhsKind::Call:
      Rhs = callString(A->Call);
      break;
    }
    return Pad + A->Lhs.str() + " = " + Rhs + ";\n";
  }
  case Stmt::Kind::Call:
    return Pad + callString(castStmt<CallStmt>(S)->Call) + ";\n";
  case Stmt::Kind::Return: {
    const auto *R = castStmt<ReturnStmt>(S);
    if (R->Value)
      return Pad + "return " + R->Value->str() + ";\n";
    return Pad + "return;\n";
  }
  case Stmt::Kind::Block: {
    std::string Out = Pad + "{\n";
    for (const Stmt *Child : castStmt<BlockStmt>(S)->Body)
      Out += printStmt(Child, Indent + 1);
    Out += Pad + "}\n";
    return Out;
  }
  case Stmt::Kind::If: {
    const auto *I = castStmt<IfStmt>(S);
    std::string Out = Pad + "if (" + I->Cond.str() + ")\n";
    Out += printStmt(I->Then, Indent + 1);
    if (I->Else) {
      Out += Pad + "else\n";
      Out += printStmt(I->Else, Indent + 1);
    }
    return Out;
  }
  case Stmt::Kind::Loop: {
    const auto *L = castStmt<LoopStmt>(S);
    std::string Cond = L->CondVar ? L->CondVar->name() : "1";
    std::string Out =
        Pad + (L->PostTest ? "do-while (" : "while (") + Cond + ")\n";
    Out += printStmt(L->Body, Indent + 1);
    if (L->Trailer) {
      Out += Pad + "trailer:\n";
      Out += printStmt(L->Trailer, Indent + 1);
    }
    return Out;
  }
  case Stmt::Kind::Switch: {
    const auto *Sw = castStmt<SwitchStmt>(S);
    std::string Out = Pad + "switch (" + Sw->Cond.str() + ") {\n";
    for (const SwitchStmt::Case &C : Sw->Cases) {
      if (C.IsDefault)
        Out += Pad + "default:\n";
      for (long long V : C.Values)
        Out += Pad + "case " + std::to_string(V) + ":\n";
      for (const Stmt *Child : C.Body)
        Out += printStmt(Child, Indent + 1);
    }
    Out += Pad + "}\n";
    return Out;
  }
  case Stmt::Kind::Break:
    return Pad + "break;\n";
  case Stmt::Kind::Continue:
    return Pad + "continue;\n";
  }
  return Pad + "<?>\n";
}

const FunctionIR *Program::findFunction(const cfront::FunctionDecl *F) const {
  for (const FunctionIR &FIR : Funcs)
    if (FIR.Decl == F)
      return &FIR;
  return nullptr;
}

const FunctionIR *mcpta::simple::findMain(const Program &Prog) {
  for (const FunctionIR &F : Prog.functions())
    if (F.Decl && F.Decl->name() == "main" && F.Body)
      return &F;
  return nullptr;
}

unsigned Program::numBasicStmts() const {
  unsigned N = 0;
  for (const Stmt *S : AllStmts)
    if (S->isBasic())
      ++N;
  return N;
}

std::string Program::str() const {
  std::string Out;
  if (GlobalInit && !GlobalInit->Body.empty()) {
    Out += "global-init:\n";
    Out += printStmt(GlobalInit, 1);
  }
  for (const FunctionIR &F : Funcs) {
    Out += F.Decl->name() + ":\n";
    Out += printStmt(F.Body, 1);
  }
  return Out;
}
