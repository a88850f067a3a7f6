//===- TestUtil.h - shared test helpers -------------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef MCPTA_TESTS_TESTUTIL_H
#define MCPTA_TESTS_TESTUTIL_H

#include "driver/Pipeline.h"
#include "pointsto/LRLocations.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace mcpta {
namespace testutil {

/// Parses+lowers+analyzes; fails the test on any diagnostic.
inline Pipeline analyze(const std::string &Source) {
  Pipeline P = Pipeline::analyzeSource(Source);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  EXPECT_TRUE(P.Analysis.Analyzed);
  return P;
}

inline Pipeline analyze(const std::string &Source,
                        const pta::Analyzer::Options &Opts) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  return P;
}

/// The final points-to set of main rendered as a canonical string.
inline std::string mainOut(const Pipeline &P) {
  if (!P.Analysis.MainOut)
    return "<bottom>";
  return P.Analysis.MainOut->str(*P.Analysis.Locs);
}

/// True if the final set at end of main contains (Src, Dst) with the
/// given definiteness ('D', 'P', or '*' for either).
inline bool mainHasPair(const Pipeline &P, const std::string &Src,
                        const std::string &Dst, char D = '*') {
  if (!P.Analysis.MainOut)
    return false;
  std::string S = mainOut(P);
  if (D == '*')
    return S.find("(" + Src + "," + Dst + ",") != std::string::npos;
  return S.find("(" + Src + "," + Dst + "," + D + ")") != std::string::npos;
}

/// Looks up a local/global variable's location by (function, name).
/// Function name empty = global.
inline const pta::Location *findLoc(const Pipeline &P,
                                    const std::string &Func,
                                    const std::string &Var) {
  const cfront::VarDecl *Found = nullptr;
  if (Func.empty()) {
    for (const cfront::VarDecl *G : P.Prog->globals())
      if (G->name() == Var)
        Found = G;
  } else {
    for (const simple::FunctionIR &F : P.Prog->functions()) {
      if (F.Decl->name() != Func)
        continue;
      for (const cfront::VarDecl *L : F.Locals)
        if (L->name() == Var)
          Found = L;
      for (const cfront::VarDecl *Param : F.Decl->params())
        if (Param->name() == Var)
          Found = Param;
    }
  }
  if (!Found)
    return nullptr;
  return P.Analysis.Locs->varLoc(Found);
}

/// Andersen-compatible name of a location's root entity, or "" for
/// roots outside Andersen's abstraction (null, retval, symbolic).
inline std::string andersenRootName(const pta::Location *L) {
  const pta::Entity *Root = L->root();
  switch (Root->kind()) {
  case pta::Entity::Kind::Variable: {
    const cfront::VarDecl *V = Root->var();
    if (!V)
      return "";
    return (V->owner() ? V->owner()->name() + "::" : std::string()) +
           V->name();
  }
  case pta::Entity::Kind::Heap:
    return "heap";
  case pta::Entity::Kind::Function:
    return Root->function() ? Root->function()->name() : "";
  default:
    return "";
  }
}

/// End-of-main pairs collapsed to root-entity granularity, rendered
/// "src -> dst" with Andersen's names. Root granularity is what the
/// precision-order properties promise: degraded fallbacks merge
/// contexts and collapse symbolic chains, and Andersen collapses
/// fields and array cells onto their root.
inline std::set<std::string> rootPairs(const Pipeline &P) {
  std::set<std::string> Out;
  if (!P.Analysis.MainOut)
    return Out;
  P.Analysis.MainOut->forEach(
      *P.Analysis.Locs,
      [&](const pta::Location *S, const pta::Location *T, pta::Def) {
        std::string A = andersenRootName(S), B = andersenRootName(T);
        if (!A.empty() && !B.empty())
          Out.insert(A + " -> " + B);
      });
  return Out;
}

} // namespace testutil
} // namespace mcpta

#endif // MCPTA_TESTS_TESTUTIL_H
