//===- Interpreter.cpp - Concrete SIMPLE interpreter ---------------------------===//

#include "interp/Interpreter.h"

#include <cassert>
#include <map>
#include <set>

using namespace mcpta;
using namespace mcpta::interp;
using namespace mcpta::simple;
using namespace mcpta::pta;
namespace cf = mcpta::cfront;

namespace {

//===----------------------------------------------------------------------===//
// Concrete memory model
//===----------------------------------------------------------------------===//

/// One step inside an object: a struct field or a concrete array index.
struct PathKey {
  const cf::FieldDecl *Field = nullptr;
  long long Index = 0;
  bool IsField = false;

  static PathKey field(const cf::FieldDecl *F) { return {F, 0, true}; }
  static PathKey elem(long long I) { return {nullptr, I, false}; }

  bool operator<(const PathKey &O) const {
    if (IsField != O.IsField)
      return IsField < O.IsField;
    if (IsField)
      return Field < O.Field;
    return Index < O.Index;
  }
  bool operator==(const PathKey &O) const {
    return IsField == O.IsField && Field == O.Field && Index == O.Index;
  }
};

/// A concrete address: object id plus a path to a cell inside it.
struct Address {
  unsigned Obj = 0;
  std::vector<PathKey> Path;

  bool operator==(const Address &O) const {
    return Obj == O.Obj && Path == O.Path;
  }
};

struct Value {
  enum class Kind { Undef, Int, Fp, Ptr, Fn, Null } K = Kind::Undef;
  long long I = 0;
  double F = 0;
  Address A;
  const cf::FunctionDecl *Fn = nullptr;

  static Value undef() { return {}; }
  static Value integer(long long V) {
    Value X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static Value fp(double V) {
    Value X;
    X.K = Kind::Fp;
    X.F = V;
    return X;
  }
  static Value ptr(Address A) {
    Value X;
    X.K = Kind::Ptr;
    X.A = std::move(A);
    return X;
  }
  static Value fn(const cf::FunctionDecl *F) {
    Value X;
    X.K = Kind::Fn;
    X.Fn = F;
    return X;
  }
  static Value null() {
    Value X;
    X.K = Kind::Null;
    return X;
  }

  long long asInt() const {
    switch (K) {
    case Kind::Int: return I;
    case Kind::Fp: return static_cast<long long>(F);
    case Kind::Null: return 0;
    case Kind::Ptr: return 1; // non-null pointers are truthy
    case Kind::Fn: return 1;
    case Kind::Undef: return 0;
    }
    return 0;
  }
  double asFp() const { return K == Kind::Fp ? F : static_cast<double>(asInt()); }
  bool truthy() const { return asInt() != 0; }
};

/// One allocated object: a variable instance, a global, a heap block, or
/// string storage.
struct MemObject {
  enum class Kind { Local, Global, Heap, String } K = Kind::Local;
  const cf::VarDecl *Var = nullptr; // Local/Global
  unsigned StringId = 0;
  unsigned FrameId = 0; // owning activation for locals
  std::map<std::vector<PathKey>, Value> Cells;
};

struct Frame {
  const cf::FunctionDecl *Fn = nullptr;
  unsigned FrameId = 0;
  std::map<const cf::VarDecl *, unsigned> Objects; // var -> object id
  Value RetVal = Value::integer(0);
};

enum class Signal { Normal, Break, Continue, Return, Halt, Error };

//===----------------------------------------------------------------------===//
// Interpreter engine
//===----------------------------------------------------------------------===//

class Engine {
public:
  Engine(const Program &Prog, const pta::Analyzer::Result *Res,
         const InterpOptions &Opts)
      : Prog(Prog), Res(Res), Opts(Opts) {}

  RunResult run();

private:
  //===--------------------------------------------------------------------===//
  // Memory helpers
  //===--------------------------------------------------------------------===//
  unsigned allocObject(MemObject::Kind K) {
    Objects.push_back(MemObject());
    Objects.back().K = K;
    return static_cast<unsigned>(Objects.size() - 1);
  }

  /// Initializes pointer-typed cells of an object to NULL, mirroring the
  /// analysis' initialization.
  void initPointerCells(unsigned Obj, const cf::Type *Ty,
                        std::vector<PathKey> &Prefix);

  Value readCell(const Address &A) {
    if (A.Obj >= Objects.size())
      return Value::undef();
    auto It = Objects[A.Obj].Cells.find(A.Path);
    if (It == Objects[A.Obj].Cells.end())
      return Value::undef();
    return It->second;
  }
  void writeCell(const Address &A, Value V) {
    if (A.Obj >= Objects.size())
      return;
    Objects[A.Obj].Cells[A.Path] = std::move(V);
  }

  unsigned stringObject(unsigned Id);

  //===--------------------------------------------------------------------===//
  // Evaluation
  //===--------------------------------------------------------------------===//
  long long indexValue(const Accessor &A);
  bool resolveRef(const Reference &Ref, Address &Out); // lvalue address
  Value evalRef(const Reference &Ref);                 // rvalue
  Value evalOperand(const Operand &O);
  Value evalBinary(cf::BinaryOp Op, const Value &L, const Value &R);
  Value evalUnary(cf::UnaryOp Op, const Value &V);

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//
  Signal exec(const Stmt *S);
  Signal execAssign(const AssignStmt *A);
  Signal execCall(const CallInfo &CI, const Reference *LhsRef);
  Signal callFunction(const cf::FunctionDecl *F,
                      const std::vector<Value> &Args, Value &RetOut);
  Value callExtern(const cf::FunctionDecl *F, const std::vector<Value> &Args);
  void storeAggregate(const Address &Dst, const Address &Src,
                      const cf::Type *Ty, std::vector<PathKey> &Prefix);

  std::string readCString(Value V);
  void writeCString(const Address &A, const std::string &S);

  //===--------------------------------------------------------------------===//
  // Soundness checking
  //===--------------------------------------------------------------------===//
  const Location *abstractAddress(const Address &A, bool AsTarget);
  void checkStmt(const Stmt *S);

  const Program &Prog;
  const pta::Analyzer::Result *Res;
  InterpOptions Opts;
  RunResult Result;

  std::vector<MemObject> Objects;
  std::vector<Frame> Frames; // stack; back() is current
  std::map<const cf::VarDecl *, unsigned> GlobalObjects;
  std::map<unsigned, unsigned> StringObjects;
  unsigned NextFrameId = 1;
  uint64_t RandState = 12345;
  bool StepLimitHit = false;
};

void Engine::initPointerCells(unsigned Obj, const cf::Type *Ty,
                              std::vector<PathKey> &Prefix) {
  if (!Ty)
    return;
  switch (Ty->kind()) {
  case cf::Type::Kind::Pointer:
    Objects[Obj].Cells[Prefix] = Value::null();
    return;
  case cf::Type::Kind::Record:
    for (const cf::FieldDecl *F :
         cf::cast<cf::RecordType>(Ty)->decl()->fields()) {
      Prefix.push_back(PathKey::field(F));
      initPointerCells(Obj, F->type(), Prefix);
      Prefix.pop_back();
    }
    return;
  case cf::Type::Kind::Array: {
    const auto *AT = cf::cast<cf::ArrayType>(Ty);
    if (!AT->element()->isPointerBearing())
      return;
    long N = AT->size() < 0 ? 1 : AT->size();
    for (long I = 0; I < N; ++I) {
      Prefix.push_back(PathKey::elem(I));
      initPointerCells(Obj, AT->element(), Prefix);
      Prefix.pop_back();
    }
    return;
  }
  default:
    return;
  }
}

unsigned Engine::stringObject(unsigned Id) {
  auto It = StringObjects.find(Id);
  if (It != StringObjects.end())
    return It->second;
  unsigned Obj = allocObject(MemObject::Kind::String);
  Objects[Obj].StringId = Id;
  const std::string &S = Prog.stringLiterals()[Id];
  for (size_t I = 0; I <= S.size(); ++I)
    Objects[Obj].Cells[{PathKey::elem(static_cast<long long>(I))}] =
        Value::integer(I < S.size() ? S[I] : 0);
  StringObjects[Id] = Obj;
  return Obj;
}

long long Engine::indexValue(const Accessor &A) {
  assert(A.K == Accessor::Kind::Index);
  if (!A.IndexVar)
    return A.IndexConst;
  Frame &F = Frames.back();
  auto It = F.Objects.find(A.IndexVar);
  if (It == F.Objects.end())
    return 0;
  return readCell({It->second, {}}).asInt();
}

bool Engine::resolveRef(const Reference &Ref, Address &Out) {
  Frame &F = Frames.back();
  Address A;
  if (const cf::VarDecl *V = Ref.Base) {
    if (V->isGlobal()) {
      auto It = GlobalObjects.find(V);
      if (It == GlobalObjects.end())
        return false;
      A.Obj = It->second;
    } else {
      auto It = F.Objects.find(V);
      if (It == F.Objects.end())
        return false;
      A.Obj = It->second;
    }
  } else {
    return false;
  }

  if (Ref.Deref) {
    Value P = readCell(A);
    if (P.K != Value::Kind::Ptr)
      return false; // NULL/undef dereference: caller treats as no-op
    A = P.A;
  }
  for (const Accessor &Acc : Ref.Path) {
    if (Acc.K == Accessor::Kind::Field) {
      A.Path.push_back(PathKey::field(Acc.Field));
      continue;
    }
    long long I = indexValue(Acc);
    // Shift accessors (p[i]) offset the cell the pointer designates;
    // select accessors (a[i]) descend into an aggregate. A zero shift
    // on a scalar cell (path empty or ending in a field) is the cell
    // itself, so *p and p[0] resolve to the same address.
    if (Acc.IsShift && !A.Path.empty() && !A.Path.back().IsField) {
      A.Path.back().Index += I;
      continue;
    }
    if (Acc.IsShift && I == 0)
      continue;
    A.Path.push_back(PathKey::elem(I));
  }
  Out = std::move(A);
  return true;
}

Value Engine::evalRef(const Reference &Ref) {
  Address A;
  if (!resolveRef(Ref, A))
    return Value::undef();
  if (Ref.AddrOf)
    return Value::ptr(A);
  return readCell(A);
}

Value Engine::evalOperand(const Operand &O) {
  switch (O.K) {
  case Operand::Kind::Ref:
    return evalRef(O.Ref);
  case Operand::Kind::IntConst:
    return Value::integer(O.IntValue);
  case Operand::Kind::FloatConst:
    return Value::fp(O.FloatValue);
  case Operand::Kind::NullConst:
    return Value::null();
  case Operand::Kind::StringConst: {
    Address A;
    A.Obj = stringObject(O.StringId);
    A.Path.push_back(PathKey::elem(0));
    return Value::ptr(A);
  }
  case Operand::Kind::FunctionAddr:
    return Value::fn(O.Fn);
  }
  return Value::undef();
}

Value Engine::evalUnary(cf::UnaryOp Op, const Value &V) {
  using UO = cf::UnaryOp;
  switch (Op) {
  case UO::Minus:
    if (V.K == Value::Kind::Fp)
      return Value::fp(-V.F);
    return Value::integer(-V.asInt());
  case UO::Not:
    return Value::integer(!V.truthy());
  case UO::BitNot:
    return Value::integer(~V.asInt());
  default:
    return V;
  }
}

Value Engine::evalBinary(cf::BinaryOp Op, const Value &L, const Value &R) {
  using BO = cf::BinaryOp;
  // Pointer arithmetic: shift the trailing element index.
  if (L.K == Value::Kind::Ptr && (Op == BO::Add || Op == BO::Sub)) {
    long long Off = R.asInt();
    if (Op == BO::Sub && R.K == Value::Kind::Ptr) {
      // ptr - ptr: element distance when in the same object.
      if (L.A.Obj == R.A.Obj && !L.A.Path.empty() && !R.A.Path.empty())
        return Value::integer(L.A.Path.back().Index -
                              R.A.Path.back().Index);
      return Value::integer(0);
    }
    Address A = L.A;
    long long Delta = Op == BO::Add ? Off : -Off;
    if (!A.Path.empty() && !A.Path.back().IsField)
      A.Path.back().Index += Delta;
    else if (Delta != 0)
      A.Path.push_back(PathKey::elem(Delta));
    return Value::ptr(A);
  }
  if (R.K == Value::Kind::Ptr && Op == BO::Add)
    return evalBinary(BO::Add, R, L);

  // Pointer comparisons.
  auto IsPtrish = [](const Value &V) {
    return V.K == Value::Kind::Ptr || V.K == Value::Kind::Null ||
           V.K == Value::Kind::Fn;
  };
  if (IsPtrish(L) || IsPtrish(R)) {
    bool Eq = false;
    if (L.K == Value::Kind::Null && R.K == Value::Kind::Null)
      Eq = true;
    else if (L.K == Value::Kind::Ptr && R.K == Value::Kind::Ptr)
      Eq = L.A == R.A;
    else if (L.K == Value::Kind::Fn && R.K == Value::Kind::Fn)
      Eq = L.Fn == R.Fn;
    else if ((L.K == Value::Kind::Null && R.asInt() == 0) ||
             (R.K == Value::Kind::Null && L.asInt() == 0))
      Eq = true;
    switch (Op) {
    case BO::Eq:
      return Value::integer(Eq);
    case BO::Ne:
      return Value::integer(!Eq);
    default:
      break;
    }
  }

  if (L.K == Value::Kind::Fp || R.K == Value::Kind::Fp) {
    double A = L.asFp(), B = R.asFp();
    switch (Op) {
    case BO::Add: return Value::fp(A + B);
    case BO::Sub: return Value::fp(A - B);
    case BO::Mul: return Value::fp(A * B);
    case BO::Div: return Value::fp(B != 0 ? A / B : 0);
    case BO::Lt: return Value::integer(A < B);
    case BO::Gt: return Value::integer(A > B);
    case BO::Le: return Value::integer(A <= B);
    case BO::Ge: return Value::integer(A >= B);
    case BO::Eq: return Value::integer(A == B);
    case BO::Ne: return Value::integer(A != B);
    default: break;
    }
    return Value::fp(0);
  }

  long long A = L.asInt(), B = R.asInt();
  switch (Op) {
  case BO::Add: return Value::integer(A + B);
  case BO::Sub: return Value::integer(A - B);
  case BO::Mul: return Value::integer(A * B);
  case BO::Div: return Value::integer(B ? A / B : 0);
  case BO::Rem: return Value::integer(B ? A % B : 0);
  case BO::Shl: return Value::integer(A << (B & 63));
  case BO::Shr: return Value::integer(A >> (B & 63));
  case BO::Lt: return Value::integer(A < B);
  case BO::Gt: return Value::integer(A > B);
  case BO::Le: return Value::integer(A <= B);
  case BO::Ge: return Value::integer(A >= B);
  case BO::Eq: return Value::integer(A == B);
  case BO::Ne: return Value::integer(A != B);
  case BO::BitAnd: return Value::integer(A & B);
  case BO::BitXor: return Value::integer(A ^ B);
  case BO::BitOr: return Value::integer(A | B);
  case BO::LogAnd: return Value::integer(A && B);
  case BO::LogOr: return Value::integer(A || B);
  case BO::Comma: return Value::integer(B);
  }
  return Value::integer(0);
}

//===----------------------------------------------------------------------===//
// Soundness checking
//===----------------------------------------------------------------------===//

const Location *Engine::abstractAddress(const Address &A, bool AsTarget) {
  (void)AsTarget;
  const MemObject &Obj = Objects[A.Obj];
  LocationTable &Locs = *Res->Locs;

  const Location *L = nullptr;
  switch (Obj.K) {
  case MemObject::Kind::Heap:
    return Locs.heap(); // the heap summary absorbs paths
  case MemObject::Kind::String:
    L = Locs.get(Locs.stringLit(
        Obj.StringId,
        nullptr)); // type was registered at analysis time if used
    break;
  case MemObject::Kind::Global:
    L = Locs.varLoc(Obj.Var);
    break;
  case MemObject::Kind::Local:
    // Only the current activation's locals have frame-independent
    // abstract names here.
    if (Obj.FrameId != Frames.back().FrameId)
      return nullptr;
    L = Locs.varLoc(Obj.Var);
    break;
  }
  for (const PathKey &K : A.Path) {
    if (K.IsField)
      L = Locs.withField(L, K.Field);
    else
      L = Locs.withElem(L, K.Index == 0);
  }
  return L;
}

void Engine::checkStmt(const Stmt *S) {
  if (!Opts.CheckAgainstAnalysis || !Res || !Res->Analyzed)
    return;
  if (S->id() >= Res->StmtIn.size() || !Res->StmtIn[S->id()]) {
    Result.Violations.push_back(
        "statement " + std::to_string(S->id()) +
        " executed but never reached by the analysis");
    return;
  }
  const PointsToSet &In = *Res->StmtIn[S->id()];
  LocationTable &Locs = *Res->Locs;

  // P1(a): every observable concrete pointer fact is covered.
  auto CheckObject = [&](unsigned ObjId) {
    const MemObject &Obj = Objects[ObjId];
    for (const auto &[Path, V] : Obj.Cells) {
      if (V.K != Value::Kind::Ptr && V.K != Value::Kind::Fn)
        continue;
      Address CellAddr{ObjId, Path};
      const Location *Src = abstractAddress(CellAddr, false);
      if (!Src)
        continue;
      const Location *Dst = nullptr;
      if (V.K == Value::Kind::Fn)
        Dst = Locs.fnLoc(V.Fn);
      else
        Dst = abstractAddress(V.A, true);
      if (!Dst)
        continue; // target not nameable in this scope
      if (!In.contains(Src, Dst))
        Result.Violations.push_back(
            "stmt " + std::to_string(S->id()) + ": concrete fact " +
            Src->str() + " -> " + Dst->str() +
            " missing from the analysis set");
    }
  };
  for (const auto &[V, ObjId] : GlobalObjects)
    CheckObject(ObjId);
  for (const auto &[V, ObjId] : Frames.back().Objects)
    CheckObject(ObjId);
  for (unsigned I = 0; I < Objects.size(); ++I)
    if (Objects[I].K == MemObject::Kind::Heap)
      CheckObject(I);

  // P1(b): definite pairs agree with the store.
  In.forEach(Locs, [&](const Location *Src, const Location *Dst, Def D) {
    if (D != Def::D || Src->isSummary())
      return;
    // Only check sources we can locate concretely: globals and current
    // frame variables with pure field/head paths.
    const Entity *Root = Src->root();
    unsigned ObjId = ~0u;
    if (Root->kind() == Entity::Kind::Variable) {
      const cf::VarDecl *V = Root->var();
      if (V->isGlobal()) {
        auto It = GlobalObjects.find(V);
        if (It == GlobalObjects.end())
          return;
        ObjId = It->second;
      } else {
        if (V->owner() != Frames.back().Fn)
          return;
        auto It = Frames.back().Objects.find(V);
        if (It == Frames.back().Objects.end())
          return;
        ObjId = It->second;
      }
    } else {
      return; // symbolic/heap/retval sources are not directly checkable
    }
    Address A;
    A.Obj = ObjId;
    for (const PathElem &PE : Src->path()) {
      if (PE.K == PathElem::Kind::Field)
        A.Path.push_back(PathKey::field(PE.Field));
      else if (PE.K == PathElem::Kind::Head)
        A.Path.push_back(PathKey::elem(0));
      else
        return; // tail sources are summaries (already excluded)
    }
    Value V = readCell(A);
    if (V.K == Value::Kind::Null || V.K == Value::Kind::Undef) {
      if (!Dst->isNull())
        Result.Violations.push_back(
            "stmt " + std::to_string(S->id()) + ": definite pair " +
            Src->str() + " -> " + Dst->str() + " but cell is NULL");
      return;
    }
    if (V.K == Value::Kind::Fn) {
      if (!Dst->isFunction() || Dst->root()->function() != V.Fn)
        Result.Violations.push_back(
            "stmt " + std::to_string(S->id()) + ": definite pair " +
            Src->str() + " -> " + Dst->str() + " but cell holds function");
      return;
    }
    if (V.K != Value::Kind::Ptr)
      return;
    const Location *Actual = abstractAddress(V.A, true);
    if (!Actual)
      return; // target in another frame; cannot compare
    if (Actual != Dst)
      Result.Violations.push_back(
          "stmt " + std::to_string(S->id()) + ": definite pair " +
          Src->str() + " -> " + Dst->str() + " but cell points to " +
          Actual->str());
  });
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

std::string Engine::readCString(Value V) {
  std::string S;
  if (V.K != Value::Kind::Ptr)
    return S;
  Address A = V.A;
  if (A.Path.empty() || A.Path.back().IsField)
    A.Path.push_back(PathKey::elem(0));
  for (int Guard = 0; Guard < 4096; ++Guard) {
    Value C = readCell(A);
    long long Ch = C.asInt();
    if (C.K == Value::Kind::Undef || Ch == 0)
      break;
    S += static_cast<char>(Ch);
    A.Path.back().Index += 1;
  }
  return S;
}

void Engine::writeCString(const Address &Base, const std::string &S) {
  Address A = Base;
  if (A.Path.empty() || A.Path.back().IsField)
    A.Path.push_back(PathKey::elem(0));
  for (size_t I = 0; I <= S.size(); ++I) {
    writeCell(A, Value::integer(I < S.size() ? S[I] : 0));
    A.Path.back().Index += 1;
  }
}

Value Engine::callExtern(const cf::FunctionDecl *F,
                         const std::vector<Value> &Args) {
  const std::string &Name = F->name();
  if (Name == "printf" || Name == "puts" || Name == "putchar" ||
      Name == "free" || Name == "srand")
    return Value::integer(0);
  if (Name == "rand") {
    RandState = RandState * 6364136223846793005ULL + 1442695040888963407ULL;
    return Value::integer(static_cast<long long>((RandState >> 33) & 0x7fffffff));
  }
  if (Name == "strlen" && !Args.empty())
    return Value::integer(static_cast<long long>(readCString(Args[0]).size()));
  if (Name == "strcmp" && Args.size() >= 2) {
    std::string A = readCString(Args[0]), B = readCString(Args[1]);
    return Value::integer(A < B ? -1 : (A == B ? 0 : 1));
  }
  if (Name == "strcpy" && Args.size() >= 2 &&
      Args[0].K == Value::Kind::Ptr) {
    writeCString(Args[0].A, readCString(Args[1]));
    return Args[0];
  }
  if (Name == "sqrt" && !Args.empty()) {
    double X = Args[0].asFp();
    // Newton's method; good enough for the corpus and dependency-free.
    double R = X > 1 ? X : 1;
    for (int I = 0; I < 40 && R > 0; ++I)
      R = (R + X / R) / 2;
    return Value::fp(R);
  }
  if (Name == "getchar")
    return Value::integer(-1); // deterministic EOF
  return Value::integer(0);
}

Signal Engine::callFunction(const cf::FunctionDecl *F,
                            const std::vector<Value> &Args, Value &RetOut) {
  const FunctionIR *FIR = Prog.findFunction(F);
  if (!FIR) {
    RetOut = callExtern(F, Args);
    return Signal::Normal;
  }
  if (Frames.size() > 512) {
    Result.Error = "call stack overflow (runaway recursion)";
    return Signal::Error;
  }

  Frame NewFrame;
  NewFrame.Fn = F;
  NewFrame.FrameId = NextFrameId++;
  // Allocate locals + params; pointers init to NULL like the analysis.
  auto AllocVar = [&](const cf::VarDecl *V) {
    unsigned Obj = allocObject(MemObject::Kind::Local);
    Objects[Obj].Var = V;
    Objects[Obj].FrameId = NewFrame.FrameId;
    std::vector<PathKey> Prefix;
    initPointerCells(Obj, V->type(), Prefix);
    NewFrame.Objects[V] = Obj;
    return Obj;
  };
  for (const cf::VarDecl *P : F->params())
    AllocVar(P);
  for (const cf::VarDecl *L : FIR->Locals)
    if (!NewFrame.Objects.count(L))
      AllocVar(L);

  // Bind arguments (aggregates copy cell-wise from the source object;
  // execCall passes a record arg as the source object's address).
  const auto &Params = F->params();
  Frames.push_back(std::move(NewFrame));
  for (size_t I = 0; I < Params.size() && I < Args.size(); ++I) {
    unsigned Obj = Frames.back().Objects[Params[I]];
    if (Params[I]->type()->isRecord()) {
      if (Args[I].K == Value::Kind::Ptr) {
        std::vector<PathKey> Prefix;
        storeAggregate({Obj, {}}, Args[I].A, Params[I]->type(), Prefix);
      }
      continue;
    }
    writeCell({Obj, {}}, Args[I]);
  }

  Signal Sig = exec(FIR->Body);
  if (Sig == Signal::Error || Sig == Signal::Halt) {
    Frames.pop_back();
    return Sig;
  }
  RetOut = Frames.back().RetVal;
  Frames.pop_back();
  return Signal::Normal;
}

Signal Engine::execCall(const CallInfo &CI, const Reference *LhsRef) {
  if (CI.NoReturn)
    return Signal::Halt;

  const cf::FunctionDecl *Callee = CI.Callee;
  if (CI.isIndirect()) {
    Value FP = evalRef(CI.FnPtr);
    if (FP.K != Value::Kind::Fn) {
      Result.Error = "indirect call through non-function value";
      return Signal::Error;
    }
    Callee = FP.Fn;
  }

  std::vector<Value> Args;
  for (const Operand &A : CI.Args) {
    // Record-typed plain var args pass the object's address; the callee
    // copies cells (C by-value semantics approximated: our generated
    // and corpus programs do not mutate by-value structs observably).
    if (A.isRef() && A.Ref.Ty && A.Ref.Ty->isRecord() && !A.Ref.Deref &&
        A.Ref.Path.empty() && !A.Ref.AddrOf) {
      Address Ad;
      if (resolveRef(A.Ref, Ad))
        Args.push_back(Value::ptr(Ad));
      else
        Args.push_back(Value::undef());
      continue;
    }
    Args.push_back(evalOperand(A));
  }

  Value Ret = Value::integer(0);
  Signal Sig = callFunction(Callee, Args, Ret);
  if (Sig != Signal::Normal)
    return Sig;
  if (LhsRef) {
    Address A;
    if (resolveRef(*LhsRef, A))
      writeCell(A, Ret);
  }
  return Signal::Normal;
}

void Engine::storeAggregate(const Address &Dst, const Address &Src,
                            const cf::Type *Ty,
                            std::vector<PathKey> &Prefix) {
  if (!Ty)
    return;
  switch (Ty->kind()) {
  case cf::Type::Kind::Record:
    for (const cf::FieldDecl *F :
         cf::cast<cf::RecordType>(Ty)->decl()->fields()) {
      Prefix.push_back(PathKey::field(F));
      storeAggregate(Dst, Src, F->type(), Prefix);
      Prefix.pop_back();
    }
    return;
  case cf::Type::Kind::Array: {
    const auto *AT = cf::cast<cf::ArrayType>(Ty);
    long N = AT->size() < 0 ? 0 : AT->size();
    for (long I = 0; I < N; ++I) {
      Prefix.push_back(PathKey::elem(I));
      storeAggregate(Dst, Src, AT->element(), Prefix);
      Prefix.pop_back();
    }
    return;
  }
  default: {
    Address SA = Src, DA = Dst;
    SA.Path.insert(SA.Path.end(), Prefix.begin(), Prefix.end());
    DA.Path.insert(DA.Path.end(), Prefix.begin(), Prefix.end());
    writeCell(DA, readCell(SA));
    return;
  }
  }
}

Signal Engine::execAssign(const AssignStmt *A) {
  // Aggregate copies move cells wholesale.
  if (A->Lhs.Ty && A->Lhs.Ty->isRecord() &&
      A->RK == AssignStmt::RhsKind::Operand && A->A.isRef()) {
    Address Dst, Src;
    if (resolveRef(A->Lhs, Dst) && resolveRef(A->A.Ref, Src)) {
      std::vector<PathKey> Prefix;
      storeAggregate(Dst, Src, A->Lhs.Ty, Prefix);
    }
    return Signal::Normal;
  }

  Value V;
  switch (A->RK) {
  case AssignStmt::RhsKind::Operand:
    V = evalOperand(A->A);
    break;
  case AssignStmt::RhsKind::Unary:
    V = evalUnary(A->UOp, evalOperand(A->A));
    break;
  case AssignStmt::RhsKind::Binary:
    V = evalBinary(A->BOp, evalOperand(A->A), evalOperand(A->B));
    break;
  case AssignStmt::RhsKind::Alloc: {
    unsigned Obj = allocObject(MemObject::Kind::Heap);
    Address Ad;
    Ad.Obj = Obj;
    Ad.Path.push_back(PathKey::elem(0));
    V = Value::ptr(Ad);
    break;
  }
  case AssignStmt::RhsKind::Call:
    return execCall(A->Call, &A->Lhs);
  }

  Address Dst;
  if (resolveRef(A->Lhs, Dst))
    writeCell(Dst, std::move(V));
  return Signal::Normal;
}

Signal Engine::exec(const Stmt *S) {
  if (!S)
    return Signal::Normal;
  if (++Result.Steps > Opts.MaxSteps) {
    StepLimitHit = true;
    return Signal::Halt;
  }

  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const Stmt *C : castStmt<BlockStmt>(S)->Body) {
      Signal Sig = exec(C);
      if (Sig != Signal::Normal)
        return Sig;
    }
    return Signal::Normal;
  case Stmt::Kind::Assign:
    checkStmt(S);
    return execAssign(castStmt<AssignStmt>(S));
  case Stmt::Kind::Call:
    checkStmt(S);
    return execCall(castStmt<CallStmt>(S)->Call, nullptr);
  case Stmt::Kind::Return: {
    checkStmt(S);
    const auto *R = castStmt<ReturnStmt>(S);
    if (R->Value)
      Frames.back().RetVal = evalOperand(*R->Value);
    return Signal::Return;
  }
  case Stmt::Kind::If: {
    const auto *I = castStmt<IfStmt>(S);
    if (evalOperand(I->Cond).truthy())
      return exec(I->Then);
    return exec(I->Else);
  }
  case Stmt::Kind::Loop: {
    const auto *L = castStmt<LoopStmt>(S);
    auto CondTrue = [&]() {
      if (!L->CondVar)
        return true;
      Frame &F = Frames.back();
      auto It = F.Objects.find(L->CondVar);
      if (It == F.Objects.end())
        return false;
      return readCell({It->second, {}}).truthy();
    };
    bool First = true;
    while (true) {
      if (!(L->PostTest && First)) {
        if (!L->PostTest && !CondTrue())
          break;
      }
      First = false;
      Signal Sig = exec(L->Body);
      if (Sig == Signal::Break)
        break;
      if (Sig == Signal::Return || Sig == Signal::Halt ||
          Sig == Signal::Error)
        return Sig;
      if (L->Trailer) {
        Signal TSig = exec(L->Trailer);
        if (TSig == Signal::Return || TSig == Signal::Halt ||
            TSig == Signal::Error)
          return TSig;
      }
      if (L->PostTest && !CondTrue())
        break;
      if (StepLimitHit)
        return Signal::Halt;
    }
    return Signal::Normal;
  }
  case Stmt::Kind::Switch: {
    const auto *Sw = castStmt<SwitchStmt>(S);
    long long V = evalOperand(Sw->Cond).asInt();
    size_t Start = Sw->Cases.size();
    size_t DefaultIdx = Sw->Cases.size();
    for (size_t I = 0; I < Sw->Cases.size(); ++I) {
      if (Sw->Cases[I].IsDefault)
        DefaultIdx = I;
      for (long long CV : Sw->Cases[I].Values)
        if (CV == V && Start == Sw->Cases.size())
          Start = I;
    }
    if (Start == Sw->Cases.size())
      Start = DefaultIdx;
    for (size_t I = Start; I < Sw->Cases.size(); ++I)
      for (const Stmt *C : Sw->Cases[I].Body) {
        Signal Sig = exec(C);
        if (Sig == Signal::Break)
          return Signal::Normal;
        if (Sig != Signal::Normal)
          return Sig;
      }
    return Signal::Normal;
  }
  case Stmt::Kind::Break:
    return Signal::Break;
  case Stmt::Kind::Continue:
    return Signal::Continue;
  }
  return Signal::Normal;
}

RunResult Engine::run() {
  const cf::FunctionDecl *Main = Prog.unit().findFunction("main");
  const FunctionIR *MainIR = Main ? Prog.findFunction(Main) : nullptr;
  if (!MainIR) {
    Result.Error = "no main function";
    return Result;
  }

  // Globals.
  for (const cf::VarDecl *G : Prog.globals()) {
    unsigned Obj = allocObject(MemObject::Kind::Global);
    Objects[Obj].Var = G;
    std::vector<PathKey> Prefix;
    initPointerCells(Obj, G->type(), Prefix);
    GlobalObjects[G] = Obj;
  }

  // Startup frame for global initializers + main body (matches the
  // analyzer: global init runs in main's context).
  Frame MainFrame;
  MainFrame.Fn = Main;
  MainFrame.FrameId = NextFrameId++;
  auto AllocVar = [&](const cf::VarDecl *V) {
    unsigned Obj = allocObject(MemObject::Kind::Local);
    Objects[Obj].Var = V;
    Objects[Obj].FrameId = MainFrame.FrameId;
    std::vector<PathKey> Prefix;
    initPointerCells(Obj, V->type(), Prefix);
    MainFrame.Objects[V] = Obj;
  };
  for (const cf::VarDecl *P : Main->params())
    AllocVar(P);
  for (const cf::VarDecl *L : MainIR->Locals)
    if (!MainFrame.Objects.count(L))
      AllocVar(L);
  Frames.push_back(std::move(MainFrame));

  Signal Sig = exec(Prog.globalInit());
  if (Sig == Signal::Normal || Sig == Signal::Return)
    Sig = exec(MainIR->Body);

  if (Sig == Signal::Error)
    return Result;
  Result.ExitValue = Frames.back().RetVal.asInt();
  Result.Completed = !StepLimitHit;
  return Result;
}

} // namespace

RunResult mcpta::interp::runAndCheck(const Program &Prog,
                                     const pta::Analyzer::Result &Res,
                                     const InterpOptions &Opts) {
  Engine E(Prog, &Res, Opts);
  return E.run();
}

RunResult mcpta::interp::run(const Program &Prog, uint64_t MaxSteps) {
  InterpOptions Opts;
  Opts.MaxSteps = MaxSteps;
  Opts.CheckAgainstAnalysis = false;
  Engine E(Prog, nullptr, Opts);
  return E.run();
}
