//===- Fingerprint.cpp - Function fingerprints for incremental reuse ---------===//

#include "incr/Fingerprint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

using namespace mcpta;
using namespace mcpta::incr;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

std::string incr::canonicalizeBody(const std::string &Print) {
  // Rewrite "$t<digits>" and "str#<digits>" to per-text first-occurrence
  // indices. '$' and '#' cannot appear in source identifiers, so the
  // token prefixes are unambiguous in a statement print.
  std::string Out;
  Out.reserve(Print.size());
  std::map<std::string, unsigned> TempIdx, StrIdx;
  size_t I = 0;
  auto digitsAt = [&](size_t P) {
    size_t E = P;
    while (E < Print.size() && std::isdigit(static_cast<unsigned char>(Print[E])))
      ++E;
    return E;
  };
  while (I < Print.size()) {
    if (Print.compare(I, 2, "$t") == 0) {
      size_t E = digitsAt(I + 2);
      if (E > I + 2) {
        std::string Tok = Print.substr(I, E - I);
        auto [It, New] = TempIdx.emplace(Tok, TempIdx.size());
        (void)New;
        Out += "$t" + std::to_string(It->second);
        I = E;
        continue;
      }
    }
    if (Print.compare(I, 4, "str#") == 0) {
      size_t E = digitsAt(I + 4);
      if (E > I + 4) {
        std::string Tok = Print.substr(I, E - I);
        auto [It, New] = StrIdx.emplace(Tok, StrIdx.size());
        (void)New;
        Out += "str#" + std::to_string(It->second);
        I = E;
        continue;
      }
    }
    Out += Print[I++];
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Walks
//===----------------------------------------------------------------------===//

namespace {

/// Visits every variable a statement tree references (reference bases,
/// runtime subscripts, loop condition variables).
template <typename Fn> void walkVars(const Stmt *Root, Fn F) {
  auto visitRef = [&](const Reference &R) {
    if (R.Base)
      F(R.Base);
    for (const Accessor &A : R.Path)
      if (A.K == Accessor::Kind::Index && A.IndexVar)
        F(A.IndexVar);
  };
  forEachStmt(Root, [&](const Stmt *S) {
    if (S->kind() == Stmt::Kind::Loop) {
      if (const cf::VarDecl *V = castStmt<LoopStmt>(S)->CondVar)
        F(V);
      return;
    }
    if (S->kind() == Stmt::Kind::Assign) {
      const auto *A = castStmt<AssignStmt>(S);
      visitRef(A->Lhs);
      if (A->RK == AssignStmt::RhsKind::Call && A->Call.isIndirect())
        visitRef(A->Call.FnPtr);
      return;
    }
    if (S->kind() == Stmt::Kind::Call) {
      const auto *C = castStmt<CallStmt>(S);
      if (C->Call.isIndirect())
        visitRef(C->Call.FnPtr);
    }
  });
  walkOperands(Root, [&](const Operand &Op) {
    if (Op.isRef())
      visitRef(Op.Ref);
  });
}

std::string typeStr(const cf::Type *Ty) { return Ty ? Ty->str() : "<null>"; }

uint64_t hashRecordLayouts(const cf::TranslationUnit &Unit) {
  uint64_t H = fnv1a("records:");
  for (const cf::RecordDecl *R : Unit.records()) {
    H = fnv1a(R->name() + (R->isUnion() ? "|u{" : "|s{"), H);
    for (const cf::FieldDecl *F : R->fields())
      H = fnv1a(F->name() + ":" + typeStr(F->type()) + ";", H);
    H = fnv1a("}", H);
  }
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// computeMeta
//===----------------------------------------------------------------------===//

ProgramMeta incr::computeMeta(const Program &Prog) {
  ProgramMeta M;
  const cf::TranslationUnit &Unit = Prog.unit();

  M.TypesFingerprint = hashRecordLayouts(Unit);

  // --- globals --------------------------------------------------------
  // Attribute each lowered initializer statement to the global its
  // L-value roots at; everything else (temp computations) lands in the
  // program-level GlobalInitFingerprint.
  std::map<std::string, std::string> InitByGlobal;
  std::string InitAll;
  if (const BlockStmt *GI = Prog.globalInit()) {
    for (const Stmt *S : GI->Body) {
      std::string P = printStmt(S);
      InitAll += P;
      if (const auto *A = dynCastStmt<AssignStmt>(S))
        if (A->Lhs.Base && A->Lhs.Base->isGlobal())
          InitByGlobal[A->Lhs.Base->name()] += P;
    }
    walkOperands(GI, [&](const Operand &Op) {
      if (Op.K == Operand::Kind::StringConst)
        M.GlobalInitStringIds.push_back(Op.StringId);
    });
  }
  M.GlobalInitFingerprint = fnv1a(canonicalizeBody(InitAll));

  for (const cf::VarDecl *G : Prog.globals()) {
    GlobalMeta GM;
    GM.Name = G->name();
    std::string Text = G->name() + "|" + typeStr(G->type()) + "|";
    auto It = InitByGlobal.find(G->name());
    if (It != InitByGlobal.end())
      Text += canonicalizeBody(It->second);
    GM.Fingerprint = fnv1a(Text);
    M.Globals.push_back(std::move(GM));
  }

  // --- functions ------------------------------------------------------
  for (const cf::FunctionDecl *F : Unit.functions()) {
    FunctionMeta FM;
    FM.Name = F->name();

    std::string Sig = "ret:" + typeStr(F->returnType()) + ";";
    for (const cf::VarDecl *P : F->params()) {
      Sig += P->name() + ":" + typeStr(P->type()) + ";";
      FM.ParamNames.push_back(P->name());
    }
    if (F->type() && F->type()->isVariadic())
      Sig += "...;";
    Sig += F->isAddressTaken() ? "addrtaken;" : "";

    const FunctionIR *FIR = Prog.findFunction(F);
    if (!FIR) {
      FM.Defined = 0;
      FM.Fingerprint = fnv1a("extern|" + Sig);
      M.Functions.push_back(std::move(FM));
      continue;
    }
    FM.Defined = 1;

    for (const cf::VarDecl *V : FIR->Locals)
      FM.LocalNames.push_back(V->name());

    forEachStmt(FIR->Body,
              [&](const Stmt *S) { FM.StmtIds.push_back(S->id()); });

    std::set<std::string> SeenCallees;
    for (const CallInfo *CI : FIR->Calls) {
      FM.CallSiteIds.push_back(CI->CallSiteId);
      if (CI->isIndirect())
        FM.HasIndirectCalls = 1;
      if (CI->Callee && SeenCallees.insert(CI->Callee->name()).second)
        FM.CalleeNames.push_back(CI->Callee->name());
    }

    walkOperands(FIR->Body, [&](const Operand &Op) {
      if (Op.K == Operand::Kind::StringConst)
        FM.StringIds.push_back(Op.StringId);
    });

    std::set<std::string> GlobalSet;
    std::string GlobalText;
    walkVars(FIR->Body, [&](const cf::VarDecl *V) {
      if (V->isGlobal() && GlobalSet.insert(V->name()).second)
        FM.GlobalRefs.push_back(V->name());
    });
    std::sort(FM.GlobalRefs.begin(), FM.GlobalRefs.end());
    for (const std::string &G : FM.GlobalRefs)
      GlobalText += G + ";";

    std::string Body = canonicalizeBody(printStmt(FIR->Body));
    // Local declaration order and types participate too: a pointer-type
    // change alters NULL-initialization even when no statement prints
    // differently.
    std::string LocalsText;
    for (const cf::VarDecl *V : FIR->Locals)
      LocalsText += V->name() + ":" + typeStr(V->type()) + ";";

    FM.Fingerprint = fnv1a("def|" + Sig + "|locals:" + LocalsText +
                           "|globals:" + GlobalText + "|body:" + Body);
    M.Functions.push_back(std::move(FM));
  }

  return M;
}
