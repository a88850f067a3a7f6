//===- IGStats.cpp - Table 6 statistics ---------------------------------------===//

#include "clients/IGStats.h"

using namespace mcpta;
using namespace mcpta::clients;
using namespace mcpta::pta;
using namespace mcpta::simple;

IGStats IGStats::compute(const simple::Program &Prog,
                         const pta::Analyzer::Result &Res) {
  IGStats Out;
  if (!Res.IG)
    return Out;
  Out.Nodes = Res.IG->numNodes();
  Out.Recursive = Res.IG->numRecursive();
  Out.Approximate = Res.IG->numApproximate();
  Out.Functions = Res.IG->numFunctionsCovered();

  // Static call sites in the simplified program (reachable or not).
  size_t CallSites = 0;
  for (const FunctionIR &F : Prog.functions())
    CallSites += F.Calls.size();
  Out.CallSites = static_cast<unsigned>(CallSites);
  return Out;
}
