//===- ReadWriteSets.cpp - Read/write set computation --------------------------===//

#include "clients/ReadWriteSets.h"

#include "pointsto/LRLocations.h"

using namespace mcpta;
using namespace mcpta::clients;
using namespace mcpta::pta;
using namespace mcpta::simple;

namespace {

struct Collector {
  const pta::Analyzer::Result &Res;
  LREvaluator Eval;
  std::vector<LocDef> Locations; ///< reused evaluation buffer
  std::set<std::string> *Reads = nullptr;
  std::set<std::string> *Writes = nullptr;

  explicit Collector(const pta::Analyzer::Result &Res)
      : Res(Res), Eval(*Res.Locs) {}

  const PointsToSet *inputOf(const Stmt *S) const {
    if (S->id() >= Res.StmtIn.size() || !Res.StmtIn[S->id()])
      return nullptr;
    return &*Res.StmtIn[S->id()];
  }

  void noteRead(const Reference &Ref, const PointsToSet &In) {
    Eval.refLocations(Ref, In, Locations);
    for (const LocDef &L : Locations)
      Reads->insert(L.Loc->str());
  }
  void noteReadOperand(const Operand &O, const PointsToSet &In) {
    if (O.isRef() && !O.Ref.AddrOf)
      noteRead(O.Ref, In);
  }
  void noteWrite(const Reference &Ref, const PointsToSet &In) {
    Eval.lvalLocations(Ref, In, Locations);
    for (const LocDef &L : Locations)
      Writes->insert(L.Loc->str());
    // A dereferencing write also reads the pointer itself.
    if (Ref.Deref)
      Reads->insert(Eval.baseLoc(Ref.Base)->str());
  }

  void visit(const Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Block:
      for (const Stmt *C : castStmt<BlockStmt>(S)->Body)
        visit(C);
      return;
    case Stmt::Kind::If: {
      const auto *I = castStmt<IfStmt>(S);
      visit(I->Then);
      visit(I->Else);
      return;
    }
    case Stmt::Kind::Loop: {
      const auto *L = castStmt<LoopStmt>(S);
      visit(L->Body);
      visit(L->Trailer);
      return;
    }
    case Stmt::Kind::Switch:
      for (const SwitchStmt::Case &C : castStmt<SwitchStmt>(S)->Cases)
        for (const Stmt *B : C.Body)
          visit(B);
      return;
    case Stmt::Kind::Assign: {
      const PointsToSet *In = inputOf(S);
      if (!In)
        return;
      const auto *A = castStmt<AssignStmt>(S);
      noteWrite(A->Lhs, *In);
      switch (A->RK) {
      case AssignStmt::RhsKind::Operand:
      case AssignStmt::RhsKind::Unary:
        noteReadOperand(A->A, *In);
        break;
      case AssignStmt::RhsKind::Binary:
        noteReadOperand(A->A, *In);
        noteReadOperand(A->B, *In);
        break;
      case AssignStmt::RhsKind::Alloc:
        break;
      case AssignStmt::RhsKind::Call:
        for (const Operand &Arg : A->Call.Args)
          noteReadOperand(Arg, *In);
        break;
      }
      return;
    }
    case Stmt::Kind::Call: {
      const PointsToSet *In = inputOf(S);
      if (!In)
        return;
      for (const Operand &Arg : castStmt<CallStmt>(S)->Call.Args)
        noteReadOperand(Arg, *In);
      return;
    }
    case Stmt::Kind::Return: {
      const PointsToSet *In = inputOf(S);
      if (!In)
        return;
      const auto *R = castStmt<ReturnStmt>(S);
      if (R->Value)
        noteReadOperand(*R->Value, *In);
      return;
    }
    default:
      return;
    }
  }
};

} // namespace

std::set<std::string>
mcpta::clients::contextualize(const std::set<std::string> &ContextFree,
                              const pta::IGNode &Node,
                              const pta::LocationTable &Locs) {
  // Index the node's map info by the symbolic root's display name.
  std::map<std::string, const std::vector<pta::LocationId> *> BySym;
  for (const pta::MapInfoTable::Entry &E : Node.MapInfo)
    BySym[Locs.byId(E.Sym)->str()] = &E.Reps;

  std::set<std::string> Out;
  for (const std::string &Name : ContextFree) {
    // A symbolic-rooted name looks like "<k>_<base>[.path]": match the
    // longest symbolic root that prefixes it.
    const std::vector<pta::LocationId> *Reps = nullptr;
    std::string Suffix;
    for (const auto &[SymName, R] : BySym) {
      if (Name.compare(0, SymName.size(), SymName) != 0)
        continue;
      if (Name.size() > SymName.size() && Name[SymName.size()] != '.' &&
          Name[SymName.size()] != '[')
        continue;
      Reps = R;
      Suffix = Name.substr(SymName.size());
    }
    if (Reps) {
      for (pta::LocationId Rep : *Reps)
        Out.insert(Locs.byId(Rep)->str() + Suffix);
      continue;
    }
    // Unbound symbolics belong to other contexts; everything else is a
    // context-independent name.
    bool LooksSymbolic = !Name.empty() && Name[0] >= '1' &&
                         Name[0] <= '9' &&
                         Name.find('_') != std::string::npos;
    if (!LooksSymbolic)
      Out.insert(Name);
  }
  return Out;
}

ReadWriteSets ReadWriteSets::compute(const Program &Prog,
                                     const pta::Analyzer::Result &Res) {
  ReadWriteSets Out;
  if (!Res.Analyzed)
    return Out;
  Collector C(Res);
  for (const FunctionIR &F : Prog.functions()) {
    C.Reads = &Out.Reads[F.Decl->name()];
    C.Writes = &Out.Writes[F.Decl->name()];
    C.visit(F.Body);
  }
  return Out;
}
