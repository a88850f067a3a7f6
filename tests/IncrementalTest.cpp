//===- IncrementalTest.cpp - incremental re-analysis equivalence ---------------===//
//
// The incremental engine's contract (incr/IncrementalEngine.h) is exact
// equivalence: re-analyzing an edited source against a baseline snapshot
// yields a serialized result byte-identical to a from-scratch run on the
// edited source. Falling back to a full re-analysis is allowed, but only
// with a recorded incr.fallback.* reason — never silently.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "incr/CanonKeys.h"
#include "incr/Fingerprint.h"
#include "incr/IncrementalEngine.h"
#include "serve/Serialize.h"
#include "wlgen/WorkloadGen.h"

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace mcpta;
using namespace mcpta::incr;
using namespace mcpta::serve;
using namespace mcpta::testutil;

namespace {

ResultSnapshot snapshotOf(const std::string &Source,
                          const pta::Analyzer::Options &Opts = {}) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  EXPECT_TRUE(P.Analysis.Analyzed);
  return ResultSnapshot::capture(*P.Prog, P.Analysis, optionsFingerprint(Opts));
}

std::string scratchBlob(const std::string &Source,
                        const pta::Analyzer::Options &Opts = {}) {
  return serialize(snapshotOf(Source, Opts));
}

ProgramMeta metaOf(const std::string &Source) {
  Pipeline P = Pipeline::frontend(Source);
  EXPECT_TRUE(P.Prog) << P.Diags.dump();
  return computeMeta(*P.Prog);
}

/// Runs one incremental step and checks the full contract: success, byte
/// equivalence with a from-scratch run, and no silent fallback.
void expectEquivalent(const ResultSnapshot &Baseline, const std::string &Edited,
                      const std::string &Label,
                      IncrOutput *OutParam = nullptr) {
  pta::Analyzer::Options Opts;
  support::Telemetry Telem(true);
  IncrOutput O = IncrementalEngine::reanalyze(Baseline, Edited, Opts, &Telem);
  ASSERT_TRUE(O.Ok) << Label << ": " << O.Diags.dump();
  EXPECT_EQ(O.Blob, scratchBlob(Edited, Opts))
      << Label << " (incremental=" << O.Stats.UsedIncremental
      << " fallback=" << O.Stats.FallbackReason << ")";
  if (O.Stats.UsedIncremental) {
    EXPECT_TRUE(O.Stats.FallbackReason.empty()) << Label;
  } else {
    // Fallback is allowed but must be recorded, both on the stats and
    // as a telemetry counter.
    ASSERT_FALSE(O.Stats.FallbackReason.empty()) << Label;
    EXPECT_GE(Telem.counter("incr.fallback." + O.Stats.FallbackReason).Value,
              1u)
        << Label;
  }
  if (OutParam)
    *OutParam = std::move(O);
}

//===----------------------------------------------------------------------===//
// The equivalence property: every corpus program x every mutation kind
//===----------------------------------------------------------------------===//

class IncrementalEquivalence : public ::testing::TestWithParam<const char *> {};

TEST_P(IncrementalEquivalence, EveryMutationKindMatchesScratchBytes) {
  const corpus::CorpusProgram *CP = corpus::find(GetParam());
  ASSERT_NE(CP, nullptr);
  std::string Seed = CP->Source;
  ResultSnapshot Baseline = snapshotOf(Seed);

  for (wlgen::MutationKind K : wlgen::AllMutationKinds) {
    std::string Edited = wlgen::mutateSource(Seed, K);
    ASSERT_NE(Edited, Seed) << wlgen::mutationKindName(K);
    expectEquivalent(Baseline, Edited,
                     std::string(CP->Name) + "/" + wlgen::mutationKindName(K));
  }
}

TEST_P(IncrementalEquivalence, NullBaselineIsAFullRun) {
  const corpus::CorpusProgram *CP = corpus::find(GetParam());
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  support::Telemetry Telem(true);
  IncrOutput O =
      IncrementalEngine::reanalyze(nullptr, CP->Source, Opts, &Telem);
  ASSERT_TRUE(O.Ok) << O.Diags.dump();
  EXPECT_FALSE(O.Stats.UsedIncremental);
  EXPECT_EQ(O.Stats.FallbackReason, "no-baseline");
  EXPECT_EQ(O.Blob, scratchBlob(CP->Source, Opts));
  // No baseline means nothing fell back: no incr.fallback.* counter.
  for (const auto &[Name, Value] : Telem.countersSnapshot())
    EXPECT_NE(Name.rfind("incr.fallback.", 0), 0u) << Name << "=" << Value;
}

/// The engine's outcome on one corpus edit: program, mutation kind,
/// salt, then incr.seed_hits, incr.memo_reuse, incr.rows_carried,
/// incr.rows_materialized, incr.dirty_functions and the fallback reason.
struct PinnedEdit {
  const char *Program;
  const char *Kind;
  unsigned Salt;
  uint64_t SeedHits, MemoReuse, RowsCarried, RowsMaterialized, Dirty;
  const char *Fallback;
};

/// Every corpus program x mutation kind x salts 0-2. What an edit reuses
/// sets the serve edit's cost, so the canonical forms seeding and
/// coverage compare must decide every match as the string forms do;
/// the values are theirs.
const PinnedEdit PinnedEdits[] = {
    {"genetic", "RenameLocal", 0, 17, 17, 76, 0, 2, ""},
    {"genetic", "RenameLocal", 1, 16, 16, 74, 0, 2, ""},
    {"genetic", "RenameLocal", 2, 16, 16, 74, 0, 2, ""},
    {"genetic", "TweakConstant", 0, 17, 17, 76, 0, 2, ""},
    {"genetic", "TweakConstant", 1, 17, 17, 76, 0, 2, ""},
    {"genetic", "TweakConstant", 2, 17, 17, 76, 0, 2, ""},
    {"genetic", "AddAssignment", 0, 16, 16, 74, 0, 2, ""},
    {"genetic", "AddAssignment", 1, 16, 16, 79, 0, 2, ""},
    {"genetic", "AddAssignment", 2, 17, 17, 74, 0, 2, ""},
    {"genetic", "RemoveAssignment", 0, 16, 16, 74, 0, 2, ""},
    {"genetic", "RemoveAssignment", 1, 16, 16, 76, 0, 2, ""},
    {"genetic", "RemoveAssignment", 2, 0, 0, 0, 0, 1, "coverage"},
    {"genetic", "AddCall", 0, 10, 10, 86, 0, 3, ""},
    {"genetic", "AddCall", 1, 17, 17, 76, 0, 3, ""},
    {"genetic", "AddCall", 2, 16, 16, 74, 0, 3, ""},
    {"dry", "RenameLocal", 0, 6, 11, 91, 0, 3, ""},
    {"dry", "RenameLocal", 1, 6, 11, 91, 0, 3, ""},
    {"dry", "RenameLocal", 2, 7, 12, 97, 0, 2, ""},
    {"dry", "TweakConstant", 0, 7, 12, 97, 0, 2, ""},
    {"dry", "TweakConstant", 1, 7, 12, 97, 0, 2, ""},
    {"dry", "TweakConstant", 2, 7, 12, 97, 0, 2, ""},
    {"dry", "AddAssignment", 0, 6, 11, 91, 0, 3, ""},
    {"dry", "AddAssignment", 1, 6, 12, 105, 0, 2, ""},
    {"dry", "AddAssignment", 2, 6, 12, 117, 0, 2, ""},
    {"dry", "RemoveAssignment", 0, 6, 11, 91, 0, 3, ""},
    {"dry", "RemoveAssignment", 1, 6, 11, 91, 0, 3, ""},
    {"dry", "RemoveAssignment", 2, 7, 12, 97, 0, 2, ""},
    {"dry", "AddCall", 0, 6, 11, 91, 0, 4, ""},
    {"dry", "AddCall", 1, 7, 12, 97, 0, 3, ""},
    {"dry", "AddCall", 2, 8, 10, 94, 0, 5, ""},
    {"clinpack", "RenameLocal", 0, 4, 4, 119, 0, 4, ""},
    {"clinpack", "RenameLocal", 1, 4, 9, 235, 0, 2, ""},
    {"clinpack", "RenameLocal", 2, 4, 9, 235, 0, 2, ""},
    {"clinpack", "TweakConstant", 0, 4, 4, 119, 0, 4, ""},
    {"clinpack", "TweakConstant", 1, 4, 4, 119, 0, 4, ""},
    {"clinpack", "TweakConstant", 2, 4, 9, 235, 0, 2, ""},
    {"clinpack", "AddAssignment", 0, 5, 7, 151, 0, 3, ""},
    {"clinpack", "AddAssignment", 1, 3, 8, 180, 0, 2, ""},
    {"clinpack", "AddAssignment", 2, 6, 8, 177, 0, 2, ""},
    {"clinpack", "RemoveAssignment", 0, 4, 9, 235, 0, 2, ""},
    {"clinpack", "RemoveAssignment", 1, 5, 7, 151, 0, 3, ""},
    {"clinpack", "RemoveAssignment", 2, 4, 4, 27, 0, 6, ""},
    {"clinpack", "AddCall", 0, 4, 4, 119, 0, 5, ""},
    {"clinpack", "AddCall", 1, 4, 9, 235, 0, 3, ""},
    {"clinpack", "AddCall", 2, 5, 7, 167, 0, 4, ""},
    {"config", "RenameLocal", 0, 34, 39, 167, 0, 2, ""},
    {"config", "RenameLocal", 1, 34, 39, 167, 0, 2, ""},
    {"config", "RenameLocal", 2, 34, 39, 147, 0, 2, ""},
    {"config", "TweakConstant", 0, 18, 23, 176, 0, 2, ""},
    {"config", "TweakConstant", 1, 34, 39, 173, 0, 2, ""},
    {"config", "TweakConstant", 2, 34, 39, 173, 0, 2, ""},
    {"config", "AddAssignment", 0, 34, 39, 167, 0, 2, ""},
    {"config", "AddAssignment", 1, 34, 39, 147, 0, 2, ""},
    {"config", "AddAssignment", 2, 34, 39, 167, 0, 2, ""},
    {"config", "RemoveAssignment", 0, 18, 23, 176, 0, 2, ""},
    {"config", "RemoveAssignment", 1, 0, 0, 0, 0, 23, ""},
    {"config", "RemoveAssignment", 2, 34, 39, 167, 0, 2, ""},
    {"config", "AddCall", 0, 18, 23, 176, 0, 3, ""},
    {"config", "AddCall", 1, 34, 39, 173, 0, 3, ""},
    {"config", "AddCall", 2, 34, 39, 175, 0, 3, ""},
    {"toplev", "RenameLocal", 0, 10, 14, 48, 0, 2, ""},
    {"toplev", "RenameLocal", 1, 5, 14, 48, 0, 2, ""},
    {"toplev", "RenameLocal", 2, 5, 14, 48, 0, 2, ""},
    {"toplev", "TweakConstant", 0, 9, 13, 41, 0, 3, ""},
    {"toplev", "TweakConstant", 1, 9, 13, 41, 0, 3, ""},
    {"toplev", "TweakConstant", 2, 8, 12, 46, 0, 3, ""},
    {"toplev", "AddAssignment", 0, 5, 14, 48, 0, 2, ""},
    {"toplev", "AddAssignment", 1, 2, 15, 66, 0, 1, ""},
    {"toplev", "AddAssignment", 2, 5, 14, 48, 0, 2, ""},
    {"toplev", "RemoveAssignment", 0, 4, 4, 4, 0, 10, ""},
    {"toplev", "RemoveAssignment", 1, 8, 12, 46, 0, 3, ""},
    {"toplev", "RemoveAssignment", 2, 5, 5, 11, 0, 9, ""},
    {"toplev", "AddCall", 0, 9, 13, 41, 0, 4, ""},
    {"toplev", "AddCall", 1, 8, 12, 46, 0, 4, ""},
    {"toplev", "AddCall", 2, 8, 12, 45, 0, 4, ""},
    {"compress", "RenameLocal", 0, 5, 5, 62, 0, 3, ""},
    {"compress", "RenameLocal", 1, 5, 5, 64, 0, 3, ""},
    {"compress", "RenameLocal", 2, 5, 5, 64, 0, 3, ""},
    {"compress", "TweakConstant", 0, 5, 5, 62, 0, 3, ""},
    {"compress", "TweakConstant", 1, 5, 5, 62, 0, 3, ""},
    {"compress", "TweakConstant", 2, 5, 5, 62, 0, 3, ""},
    {"compress", "AddAssignment", 0, 6, 6, 44, 0, 3, ""},
    {"compress", "AddAssignment", 1, 7, 7, 73, 0, 2, ""},
    {"compress", "AddAssignment", 2, 6, 6, 44, 0, 3, ""},
    {"compress", "RemoveAssignment", 0, 5, 5, 62, 0, 3, ""},
    {"compress", "RemoveAssignment", 1, 0, 0, 0, 0, 7, ""},
    {"compress", "RemoveAssignment", 2, 5, 5, 62, 0, 3, ""},
    {"compress", "AddCall", 0, 5, 5, 62, 0, 4, ""},
    {"compress", "AddCall", 1, 5, 5, 64, 0, 4, ""},
    {"compress", "AddCall", 2, 6, 6, 61, 0, 4, ""},
    {"mway", "RenameLocal", 0, 4, 7, 143, 0, 2, ""},
    {"mway", "RenameLocal", 1, 4, 7, 143, 0, 2, ""},
    {"mway", "RenameLocal", 2, 4, 7, 174, 0, 2, ""},
    {"mway", "TweakConstant", 0, 4, 7, 143, 0, 2, ""},
    {"mway", "TweakConstant", 1, 4, 7, 143, 0, 2, ""},
    {"mway", "TweakConstant", 2, 4, 7, 143, 0, 2, ""},
    {"mway", "AddAssignment", 0, 4, 7, 143, 0, 2, ""},
    {"mway", "AddAssignment", 1, 6, 6, 131, 0, 3, ""},
    {"mway", "AddAssignment", 2, 6, 6, 131, 0, 3, ""},
    {"mway", "RemoveAssignment", 0, 6, 6, 131, 0, 3, ""},
    {"mway", "RemoveAssignment", 1, 3, 3, 69, 0, 5, ""},
    {"mway", "RemoveAssignment", 2, 6, 6, 111, 0, 3, ""},
    {"mway", "AddCall", 0, 4, 7, 143, 0, 3, ""},
    {"mway", "AddCall", 1, 4, 7, 174, 0, 3, ""},
    {"mway", "AddCall", 2, 6, 6, 131, 0, 4, ""},
    {"hash", "RenameLocal", 0, 0, 0, 0, 0, 6, ""},
    {"hash", "RenameLocal", 1, 0, 0, 0, 0, 6, ""},
    {"hash", "RenameLocal", 2, 0, 0, 0, 0, 3, ""},
    {"hash", "TweakConstant", 0, 0, 0, 0, 0, 6, ""},
    {"hash", "TweakConstant", 1, 0, 0, 0, 0, 6, ""},
    {"hash", "TweakConstant", 2, 0, 0, 0, 0, 6, ""},
    {"hash", "AddAssignment", 0, 0, 0, 0, 0, 2, ""},
    {"hash", "AddAssignment", 1, 0, 0, 0, 0, 2, ""},
    {"hash", "AddAssignment", 2, 0, 0, 0, 0, 2, ""},
    {"hash", "RemoveAssignment", 0, 0, 0, 0, 0, 6, ""},
    {"hash", "RemoveAssignment", 1, 0, 0, 0, 0, 6, ""},
    {"hash", "RemoveAssignment", 2, 0, 0, 0, 0, 8, ""},
    {"hash", "AddCall", 0, 0, 0, 0, 0, 7, ""},
    {"hash", "AddCall", 1, 0, 0, 0, 0, 4, ""},
    {"hash", "AddCall", 2, 0, 0, 0, 0, 3, ""},
    {"misr", "RenameLocal", 0, 9, 9, 77, 0, 2, ""},
    {"misr", "RenameLocal", 1, 9, 9, 77, 0, 2, ""},
    {"misr", "RenameLocal", 2, 9, 9, 77, 0, 2, ""},
    {"misr", "TweakConstant", 0, 9, 9, 77, 0, 2, ""},
    {"misr", "TweakConstant", 1, 11, 11, 91, 0, 1, ""},
    {"misr", "TweakConstant", 2, 9, 9, 77, 0, 2, ""},
    {"misr", "AddAssignment", 0, 9, 9, 77, 0, 2, ""},
    {"misr", "AddAssignment", 1, 9, 9, 79, 0, 2, ""},
    {"misr", "AddAssignment", 2, 9, 9, 76, 0, 2, ""},
    {"misr", "RemoveAssignment", 0, 9, 9, 77, 0, 2, ""},
    {"misr", "RemoveAssignment", 1, 9, 9, 77, 0, 2, ""},
    {"misr", "RemoveAssignment", 2, 0, 0, 0, 0, 2, ""},
    {"misr", "AddCall", 0, 9, 9, 77, 0, 3, ""},
    {"misr", "AddCall", 1, 9, 9, 79, 0, 3, ""},
    {"misr", "AddCall", 2, 9, 9, 76, 0, 3, ""},
    {"xref", "RenameLocal", 0, 0, 0, 0, 0, 3, ""},
    {"xref", "RenameLocal", 1, 0, 0, 0, 0, 2, ""},
    {"xref", "RenameLocal", 2, 0, 0, 0, 0, 2, ""},
    {"xref", "TweakConstant", 0, 0, 0, 0, 0, 1, ""},
    {"xref", "TweakConstant", 1, 0, 0, 0, 0, 1, ""},
    {"xref", "TweakConstant", 2, 0, 0, 0, 0, 2, ""},
    {"xref", "AddAssignment", 0, 0, 0, 0, 0, 2, ""},
    {"xref", "AddAssignment", 1, 0, 0, 0, 0, 2, ""},
    {"xref", "AddAssignment", 2, 0, 0, 0, 0, 2, ""},
    {"xref", "RemoveAssignment", 0, 0, 0, 0, 0, 3, ""},
    {"xref", "RemoveAssignment", 1, 0, 0, 0, 0, 3, ""},
    {"xref", "RemoveAssignment", 2, 0, 0, 0, 0, 2, ""},
    {"xref", "AddCall", 0, 0, 0, 0, 0, 4, ""},
    {"xref", "AddCall", 1, 0, 0, 0, 0, 3, ""},
    {"xref", "AddCall", 2, 0, 0, 0, 0, 3, ""},
    {"stanford", "RenameLocal", 0, 5, 8, 83, 0, 5, ""},
    {"stanford", "RenameLocal", 1, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "RenameLocal", 2, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "TweakConstant", 0, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "TweakConstant", 1, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "TweakConstant", 2, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "AddAssignment", 0, 0, 0, 0, 0, 3, "coverage"},
    {"stanford", "AddAssignment", 1, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "AddAssignment", 2, 0, 0, 0, 0, 2, "coverage"},
    {"stanford", "RemoveAssignment", 0, 5, 8, 83, 0, 5, ""},
    {"stanford", "RemoveAssignment", 1, 0, 0, 0, 0, 12, "coverage"},
    {"stanford", "RemoveAssignment", 2, 0, 0, 0, 0, 11, "coverage"},
    {"stanford", "AddCall", 0, 5, 8, 83, 0, 6, ""},
    {"stanford", "AddCall", 1, 0, 0, 0, 0, 3, "coverage"},
    {"stanford", "AddCall", 2, 0, 0, 0, 0, 3, "coverage"},
    {"fixoutput", "RenameLocal", 0, 5, 5, 87, 0, 2, ""},
    {"fixoutput", "RenameLocal", 1, 3, 5, 85, 0, 2, ""},
    {"fixoutput", "RenameLocal", 2, 3, 5, 85, 0, 2, ""},
    {"fixoutput", "TweakConstant", 0, 5, 5, 87, 0, 2, ""},
    {"fixoutput", "TweakConstant", 1, 5, 5, 87, 0, 2, ""},
    {"fixoutput", "TweakConstant", 2, 5, 5, 87, 0, 2, ""},
    {"fixoutput", "AddAssignment", 0, 3, 5, 85, 0, 2, ""},
    {"fixoutput", "AddAssignment", 1, 3, 5, 92, 0, 2, ""},
    {"fixoutput", "AddAssignment", 2, 4, 6, 113, 0, 1, ""},
    {"fixoutput", "RemoveAssignment", 0, 5, 5, 87, 0, 2, ""},
    {"fixoutput", "RemoveAssignment", 1, 2, 2, 12, 0, 5, ""},
    {"fixoutput", "RemoveAssignment", 2, 3, 5, 85, 0, 2, ""},
    {"fixoutput", "AddCall", 0, 4, 4, 79, 0, 4, ""},
    {"fixoutput", "AddCall", 1, 4, 4, 83, 0, 4, ""},
    {"fixoutput", "AddCall", 2, 5, 5, 87, 0, 3, ""},
    {"sim", "RenameLocal", 0, 5, 6, 73, 0, 3, ""},
    {"sim", "RenameLocal", 1, 2, 7, 111, 0, 2, ""},
    {"sim", "RenameLocal", 2, 2, 7, 111, 0, 2, ""},
    {"sim", "TweakConstant", 0, 5, 10, 132, 0, 1, ""},
    {"sim", "TweakConstant", 1, 2, 7, 111, 0, 2, ""},
    {"sim", "TweakConstant", 2, 5, 10, 132, 0, 1, ""},
    {"sim", "AddAssignment", 0, 2, 7, 111, 0, 2, ""},
    {"sim", "AddAssignment", 1, 8, 9, 81, 0, 2, ""},
    {"sim", "AddAssignment", 2, 5, 9, 85, 0, 2, ""},
    {"sim", "RemoveAssignment", 0, 5, 6, 73, 0, 3, ""},
    {"sim", "RemoveAssignment", 1, 8, 9, 81, 0, 2, ""},
    {"sim", "RemoveAssignment", 2, 8, 9, 81, 0, 2, ""},
    {"sim", "AddCall", 0, 5, 6, 73, 0, 4, ""},
    {"sim", "AddCall", 1, 2, 7, 111, 0, 3, ""},
    {"sim", "AddCall", 2, 6, 6, 29, 0, 5, ""},
    {"travel", "RenameLocal", 0, 2, 2, 12, 0, 6, ""},
    {"travel", "RenameLocal", 1, 2, 2, 12, 0, 6, ""},
    {"travel", "RenameLocal", 2, 3, 16, 97, 0, 3, ""},
    {"travel", "TweakConstant", 0, 2, 2, 12, 0, 6, ""},
    {"travel", "TweakConstant", 1, 2, 2, 12, 0, 6, ""},
    {"travel", "TweakConstant", 2, 3, 16, 97, 0, 3, ""},
    {"travel", "AddAssignment", 0, 2, 2, 12, 0, 6, ""},
    {"travel", "AddAssignment", 1, 3, 16, 97, 0, 3, ""},
    {"travel", "AddAssignment", 2, 11, 12, 46, 0, 4, ""},
    {"travel", "RemoveAssignment", 0, 0, 0, 0, 0, 7, ""},
    {"travel", "RemoveAssignment", 1, 0, 0, 0, 0, 7, ""},
    {"travel", "RemoveAssignment", 2, 9, 9, 14, 0, 6, ""},
    {"travel", "AddCall", 0, 2, 2, 12, 0, 7, ""},
    {"travel", "AddCall", 1, 3, 16, 97, 0, 4, ""},
    {"travel", "AddCall", 2, 11, 12, 46, 0, 5, ""},
    {"csuite", "RenameLocal", 0, 13, 13, 157, 0, 2, ""},
    {"csuite", "RenameLocal", 1, 13, 13, 157, 0, 2, ""},
    {"csuite", "RenameLocal", 2, 13, 13, 156, 0, 2, ""},
    {"csuite", "TweakConstant", 0, 13, 13, 157, 0, 2, ""},
    {"csuite", "TweakConstant", 1, 13, 13, 157, 0, 2, ""},
    {"csuite", "TweakConstant", 2, 13, 13, 156, 0, 2, ""},
    {"csuite", "AddAssignment", 0, 13, 13, 153, 0, 2, ""},
    {"csuite", "AddAssignment", 1, 13, 13, 153, 0, 2, ""},
    {"csuite", "AddAssignment", 2, 13, 13, 153, 0, 2, ""},
    {"csuite", "RemoveAssignment", 0, 13, 13, 155, 0, 2, ""},
    {"csuite", "RemoveAssignment", 1, 13, 13, 154, 0, 2, ""},
    {"csuite", "RemoveAssignment", 2, 13, 13, 153, 0, 2, ""},
    {"csuite", "AddCall", 0, 13, 13, 157, 0, 3, ""},
    {"csuite", "AddCall", 1, 13, 13, 157, 0, 3, ""},
    {"csuite", "AddCall", 2, 13, 13, 156, 0, 3, ""},
    {"msc", "RenameLocal", 0, 5, 21, 60, 0, 3, ""},
    {"msc", "RenameLocal", 1, 5, 21, 60, 0, 3, ""},
    {"msc", "RenameLocal", 2, 5, 21, 60, 0, 3, ""},
    {"msc", "TweakConstant", 0, 5, 21, 60, 0, 3, ""},
    {"msc", "TweakConstant", 1, 5, 21, 60, 0, 3, ""},
    {"msc", "TweakConstant", 2, 5, 20, 108, 0, 3, ""},
    {"msc", "AddAssignment", 0, 5, 21, 60, 0, 3, ""},
    {"msc", "AddAssignment", 1, 5, 22, 122, 0, 2, ""},
    {"msc", "AddAssignment", 2, 2, 22, 152, 0, 2, ""},
    {"msc", "RemoveAssignment", 0, 5, 21, 60, 0, 3, ""},
    {"msc", "RemoveAssignment", 1, 5, 21, 60, 0, 3, ""},
    {"msc", "RemoveAssignment", 2, 5, 21, 60, 0, 3, ""},
    {"msc", "AddCall", 0, 0, 0, 0, 0, 10, ""},
    {"msc", "AddCall", 1, 10, 10, 2, 0, 9, ""},
    {"msc", "AddCall", 2, 5, 21, 113, 0, 4, ""},
    {"lws", "RenameLocal", 0, 7, 8, 215, 0, 2, ""},
    {"lws", "RenameLocal", 1, 7, 8, 215, 0, 2, ""},
    {"lws", "RenameLocal", 2, 7, 8, 206, 0, 2, ""},
    {"lws", "TweakConstant", 0, 7, 8, 215, 0, 2, ""},
    {"lws", "TweakConstant", 1, 7, 8, 215, 0, 2, ""},
    {"lws", "TweakConstant", 2, 7, 8, 215, 0, 2, ""},
    {"lws", "AddAssignment", 0, 7, 8, 215, 0, 2, ""},
    {"lws", "AddAssignment", 1, 7, 8, 206, 0, 2, ""},
    {"lws", "AddAssignment", 2, 7, 8, 207, 0, 2, ""},
    {"lws", "RemoveAssignment", 0, 1, 1, 17, 0, 9, ""},
    {"lws", "RemoveAssignment", 1, 1, 1, 17, 0, 9, ""},
    {"lws", "RemoveAssignment", 2, 7, 8, 207, 0, 2, ""},
    {"lws", "AddCall", 0, 7, 8, 215, 0, 3, ""},
    {"lws", "AddCall", 1, 7, 8, 206, 0, 3, ""},
    {"lws", "AddCall", 2, 7, 8, 207, 0, 3, ""},
    {"incrstress", "RenameLocal", 0, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "RenameLocal", 1, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "RenameLocal", 2, 20, 2724, 26157, 0, 3, ""},
    {"incrstress", "TweakConstant", 0, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "TweakConstant", 1, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "TweakConstant", 2, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "AddAssignment", 0, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "AddAssignment", 1, 20, 2724, 26157, 0, 3, ""},
    {"incrstress", "AddAssignment", 2, 20, 2724, 26157, 0, 3, ""},
    {"incrstress", "RemoveAssignment", 0, 0, 0, 0, 0, 2, "coverage"},
    {"incrstress", "RemoveAssignment", 1, 0, 0, 0, 0, 2, "coverage"},
    {"incrstress", "RemoveAssignment", 2, 8, 2728, 26590, 0, 2, ""},
    {"incrstress", "AddCall", 0, 8, 2728, 26590, 0, 3, ""},
    {"incrstress", "AddCall", 1, 20, 2724, 26157, 0, 4, ""},
    {"incrstress", "AddCall", 2, 20, 2724, 26157, 0, 4, ""},
};

TEST_P(IncrementalEquivalence, EditOutcomesArePinned) {
  const corpus::CorpusProgram *CP = corpus::find(GetParam());
  ASSERT_NE(CP, nullptr);
  const ResultSnapshot Baseline = snapshotOf(CP->Source);
  unsigned Checked = 0;
  for (const PinnedEdit &E : PinnedEdits) {
    if (std::string(E.Program) != CP->Name)
      continue;
    const wlgen::MutationKind *K = std::find_if(
        std::begin(wlgen::AllMutationKinds), std::end(wlgen::AllMutationKinds),
        [&](wlgen::MutationKind M) {
          return std::string(wlgen::mutationKindName(M)) == E.Kind;
        });
    ASSERT_NE(K, std::end(wlgen::AllMutationKinds)) << E.Kind;
    const std::string Label =
        std::string(E.Program) + "/" + E.Kind + "/" + std::to_string(E.Salt);
    const std::string Edited = wlgen::mutateSource(CP->Source, *K, E.Salt);
    support::Telemetry Telem(true);
    IncrOutput O =
        IncrementalEngine::reanalyze(Baseline, Edited, {}, &Telem);
    ASSERT_TRUE(O.Ok) << Label;
    EXPECT_EQ(O.Blob, scratchBlob(Edited)) << Label;
    EXPECT_EQ(O.Stats.SeedHits, E.SeedHits) << Label;
    EXPECT_EQ(O.Stats.MemoReuse, E.MemoReuse) << Label;
    EXPECT_EQ(O.Stats.RowsCarried, E.RowsCarried) << Label;
    EXPECT_EQ(O.Stats.RowsMaterialized, E.RowsMaterialized) << Label;
    EXPECT_EQ(O.Stats.DirtyFunctions, E.Dirty) << Label;
    EXPECT_EQ(O.Stats.FallbackReason, E.Fallback) << Label;
    EXPECT_EQ(Telem.counter("incr.seed_hits").Value, O.Stats.SeedHits)
        << Label;
    EXPECT_EQ(Telem.counter("incr.rows_carried").Value, O.Stats.RowsCarried)
        << Label;
    ++Checked;
  }
  EXPECT_EQ(Checked, 15u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpus, IncrementalEquivalence,
    ::testing::Values("genetic", "dry", "clinpack", "config", "toplev",
                      "compress", "mway", "hash", "misr", "xref", "stanford",
                      "fixoutput", "sim", "travel", "csuite", "msc", "lws",
                      "incrstress"),
    [](const ::testing::TestParamInfo<const char *> &I) {
      return std::string(I.param);
    });

TEST(IncrementalTest, IdenticalSourceReusesEverythingButMain) {
  // No edit at all: only main is dirty, every subtree under it grafts.
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  ASSERT_NE(CP, nullptr);
  ResultSnapshot Baseline = snapshotOf(CP->Source);
  pta::Analyzer::Options Opts;
  IncrOutput O = IncrementalEngine::reanalyze(Baseline, CP->Source, Opts);
  ASSERT_TRUE(O.Ok) << O.Diags.dump();
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_EQ(O.Stats.DirtyFunctions, 1u); // main
  EXPECT_GT(O.Stats.SeedHits, 0u);
  EXPECT_GT(O.Stats.MemoReuse, 0u);
  // Nothing but main runs live, so every grafted row is carried.
  EXPECT_GT(O.Stats.RowsCarried, 0u);
  EXPECT_EQ(O.Stats.RowsMaterialized, 0u);
  EXPECT_EQ(O.Blob, serialize(Baseline));
}

TEST(IncrementalTest, RandomWalkChainsSnapshots) {
  // An N-edit walk where each step's baseline is the previous step's
  // (possibly incremental) output — drift would compound and show up as
  // a byte mismatch at the step that inherited a wrong snapshot.
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  std::string Src = CP->Source;
  ResultSnapshot Baseline = snapshotOf(Src);
  unsigned Applied = 0;
  for (unsigned Step = 0; Step < 10; ++Step) {
    wlgen::MutationKind K =
        wlgen::AllMutationKinds[Step % std::size(wlgen::AllMutationKinds)];
    std::string Next = wlgen::mutateSource(Src, K, /*Salt=*/Step * 7 + 3);
    if (Next == Src)
      continue;
    ++Applied;
    IncrOutput O;
    expectEquivalent(Baseline, Next, "step " + std::to_string(Step) + "/" +
                                         wlgen::mutationKindName(K),
                     &O);
    if (HasFatalFailure())
      return;
    Src = std::move(Next);
    Baseline = std::move(O.Snapshot);
  }
  EXPECT_GE(Applied, 8u);
}

//===----------------------------------------------------------------------===//
// Restored rows: carried in canonical form, or built as live sets
//===----------------------------------------------------------------------===//

/// The baseline rows and new rows of \p Fn's statements, paired by
/// position in the function (statement ids may move between programs).
std::vector<std::pair<const PackedSet *, const PackedSet *>>
rowsOf(const ResultSnapshot &Base, const ResultSnapshot &New,
       const std::string &Fn) {
  auto Meta = [&Fn](const ResultSnapshot &S) -> const FunctionMeta * {
    for (const FunctionMeta &F : S.Meta.Functions)
      if (F.Name == Fn)
        return &F;
    return nullptr;
  };
  auto Row = [](const ResultSnapshot &S, uint32_t Id) -> const PackedSet * {
    for (const StmtSetRecord &R : S.StmtIn)
      if (R.StmtId == Id)
        return &R.Set;
    return nullptr;
  };
  std::vector<std::pair<const PackedSet *, const PackedSet *>> Out;
  const FunctionMeta *B = Meta(Base), *N = Meta(New);
  if (!B || !N || B->StmtIds.size() != N->StmtIds.size())
    return Out;
  for (size_t K = 0; K < B->StmtIds.size(); ++K)
    Out.emplace_back(Row(Base, B->StmtIds[K]), Row(New, N->StmtIds[K]));
  return Out;
}

TEST(IncrementalTest, RestoredRowMergesIntoALiveRow) {
  // f is clean: its baseline context f(&a) is grafted, while the new
  // call f(&b) evaluates it live, so each of f's statements has a live
  // row that the restored baseline row merges into.
  const std::string Base = "int a, b;\n"
                           "int *f(int *p) { int *q; q = p; return q; }\n"
                           "int main(void) {\n"
                           "  int *x;\n"
                           "  int *y;\n"
                           "  x = f(&a);\n"
                           "  return 0;\n"
                           "}\n";
  std::string Edit = Base;
  Edit.replace(Edit.find("  return 0;"), 0, "  y = f(&b);\n");
  IncrOutput O;
  expectEquivalent(snapshotOf(Base), Edit, "merge", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_GT(O.Stats.SeedHits, 0u);
  EXPECT_GT(O.Stats.RowsMaterialized, 0u);
  EXPECT_EQ(O.Stats.RowsCarried, 0u);
}

TEST(IncrementalTest, GeneratedEditMergesRestoredRows) {
  // The first generated program where a mutation kind merges restored
  // rows into live ones (docs/INCREMENTAL.md): a rename in seed 51
  // leaves a grafted function that other contexts also evaluate live.
  wlgen::GenConfig C;
  C.Seed = 51;
  const std::string Base = wlgen::generateProgram(C);
  const std::string Edit =
      wlgen::mutateSource(Base, wlgen::MutationKind::RenameLocal, /*Salt=*/0);
  ASSERT_NE(Edit, Base);
  IncrOutput O;
  expectEquivalent(snapshotOf(Base), Edit, "seed 51 RenameLocal", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_GT(O.Stats.RowsMaterialized, 0u);
  EXPECT_GT(O.Stats.RowsCarried, 0u);
}

TEST(IncrementalTest, MovedStringIdsRecomputeCarriedReadWriteSets) {
  // Inserting a function with a literal ahead of h renumbers h's literal
  // (str$0 -> str$1) although h is clean, so h's baseline read set no
  // longer names the right location: its rows are built as live sets
  // and its read/write sets recomputed.
  const std::string Base = "char *g;\n"
                           "char c;\n"
                           "void h(void) { char *s; s = \"hi\"; g = s; c = *s; }\n"
                           "int main(void) {\n"
                           "  h();\n"
                           "  return 0;\n"
                           "}\n";
  std::string Edit = Base;
  Edit.replace(Edit.find("void h"), 0, "void k(void) { char *t; t = \"x\"; }\n");
  Edit.replace(Edit.find("  h();"), 0, "  k();\n");
  ResultSnapshot Baseline = snapshotOf(Base);
  IncrOutput O;
  expectEquivalent(Baseline, Edit, "string shift", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_GT(O.Stats.RowsMaterialized, 0u);
  EXPECT_EQ(O.Stats.RowsCarried, 0u);
  ASSERT_TRUE(Baseline.Reads.count("h") && O.Snapshot.Reads.count("h"));
  EXPECT_NE(Baseline.Reads.at("h"), O.Snapshot.Reads.at("h"));
}

TEST(IncrementalTest, MovedLiteralMaterializesOnlyTheFunctionsUsingIt) {
  // The MovedStringIdsRecomputeCarriedReadWriteSets edit, with a
  // literal-free clean function m called ahead of h: h's rows name the
  // moved literal and are materialized, m's name none and stay carried.
  const std::string Base = "char *g;\n"
                           "char c;\n"
                           "int *gq;\n"
                           "int ga;\n"
                           "void m(void) { int *q; q = &ga; gq = q; }\n"
                           "void h(void) { char *s; s = \"hi\"; g = s; c = *s; }\n"
                           "int main(void) {\n"
                           "  m();\n"
                           "  h();\n"
                           "  return 0;\n"
                           "}\n";
  std::string Edit = Base;
  Edit.replace(Edit.find("void h"), 0, "void k(void) { char *t; t = \"x\"; }\n");
  Edit.replace(Edit.find("  h();"), 0, "  k();\n");
  ResultSnapshot Baseline = snapshotOf(Base);
  IncrOutput O;
  expectEquivalent(Baseline, Edit, "per-function string guard", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_EQ(O.Stats.SeedHits, 2u);
  EXPECT_GT(O.Stats.RowsCarried, 0u);
  EXPECT_GT(O.Stats.RowsMaterialized, 0u);
  // m's rows are the carried ones: as many as m has reached statements.
  size_t MRows = 0;
  for (const auto &[B, N] : rowsOf(Baseline, O.Snapshot, "m"))
    MRows += B != nullptr;
  EXPECT_EQ(O.Stats.RowsCarried, MRows);
  ASSERT_TRUE(Baseline.Reads.count("h") && O.Snapshot.Reads.count("h"));
  EXPECT_NE(Baseline.Reads.at("h"), O.Snapshot.Reads.at("h"));
}

TEST(IncrementalTest, ShiftedTempsKeepReadWriteSetsExact) {
  // `$tN` temporaries are program-wide counters: a temp-creating edit to
  // e, lowered before f, renumbers f's int temp, which no points-to row
  // names but f's write set does. The new blob must name the new temp.
  // (f's fingerprint hashes its locals' raw names, so f re-runs live;
  // were it grafted, restore would rebuild its read/write sets because
  // its local names moved.)
  const std::string Base = "int y, z;\n"
                           "int *gp;\n"
                           "int e(void) { int x; x = y; return x; }\n"
                           "int f(int *p) { int r; r = *p + *p * z; gp = p;"
                           " return r; }\n"
                           "int main(void) {\n"
                           "  e();\n"
                           "  f(&y);\n"
                           "  return 0;\n"
                           "}\n";
  std::string Edit = Base;
  Edit.replace(Edit.find("x = y;"), 6, "x = y + y * z;");
  ResultSnapshot Baseline = snapshotOf(Base);
  IncrOutput O;
  expectEquivalent(Baseline, Edit, "temp shift", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  ASSERT_TRUE(Baseline.Writes.count("f") && O.Snapshot.Writes.count("f"));
  EXPECT_NE(Baseline.Writes.at("f"), O.Snapshot.Writes.at("f"));
}

/// A clean callee named to sort after main, so main's locations precede
/// its own in canonical order.
const char *const ShiftBase = "int a, b;\n"
                              "int *gp;\n"
                              "void zf(int **pp) { int *q; q = *pp; gp = q; }\n"
                              "int main(void) {\n"
                              "  int *m;\n"
                              "  m = &a;\n"
                              "  zf(&m);\n"
                              "  return 0;\n"
                              "}\n";

TEST(IncrementalTest, RenameLocalCarriesRowsInOrder) {
  // A rename moves one of main's locations within main's block of the
  // canonical order; zf's rows are carried and stay byte-identical.
  std::string Edit = ShiftBase;
  Edit.replace(Edit.find("int *m;"), 7, "int *zz;");
  Edit.replace(Edit.find("m = &a;"), 1, "zz");
  Edit.replace(Edit.find("zf(&m);"), 7, "zf(&zz);");
  ResultSnapshot Baseline = snapshotOf(ShiftBase);
  support::Telemetry Telem(true);
  IncrOutput O = IncrementalEngine::reanalyze(Baseline, Edit, {}, &Telem);
  ASSERT_TRUE(O.Ok);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_EQ(O.Blob, scratchBlob(Edit));
  EXPECT_GT(O.Stats.RowsCarried, 0u);
  EXPECT_EQ(O.Stats.RowsMaterialized, 0u);
  EXPECT_EQ(Telem.counter("incr.rows_carried").Value, O.Stats.RowsCarried);
  EXPECT_EQ(Telem.counter("incr.rows_materialized").Value, 0u);
}

TEST(IncrementalTest, ShiftedCanonicalIdsRemapCarriedRows) {
  // main gains a pointer local and a target: two locations that sort
  // ahead of zf's, so every canonical id zf's carried rows use moves up
  // and each row is remapped rather than copied.
  std::string Edit = ShiftBase;
  Edit.replace(Edit.find("  return 0;"), 0, "  int *n;\n  n = &b;\n");
  ResultSnapshot Baseline = snapshotOf(ShiftBase);
  IncrOutput O;
  expectEquivalent(Baseline, Edit, "shift", &O);
  EXPECT_TRUE(O.Stats.UsedIncremental) << O.Stats.FallbackReason;
  EXPECT_GT(O.Stats.RowsCarried, 0u);
  EXPECT_EQ(O.Stats.RowsMaterialized, 0u);
  unsigned Remapped = 0;
  for (const auto &[B, N] : rowsOf(Baseline, O.Snapshot, "zf")) {
    ASSERT_EQ(B == nullptr, N == nullptr);
    if (B && *B != *N) {
      EXPECT_EQ(B->size(), N->size());
      ++Remapped;
    }
  }
  EXPECT_GT(Remapped, 0u);
}

//===----------------------------------------------------------------------===//
// Dirty-set dependency edges
//===----------------------------------------------------------------------===//

TEST(DirtySetTest, DirectCallerClosure) {
  const char *Base = "int leaf(int x) { return x + 1; }\n"
                     "int mid(int x) { return leaf(x); }\n"
                     "int other(int x) { return x; }\n"
                     "int main(void) { return mid(1) + other(2); }\n";
  const char *Edit = "int leaf(int x) { return x + 2; }\n"
                     "int mid(int x) { return leaf(x); }\n"
                     "int other(int x) { return x; }\n"
                     "int main(void) { return mid(1) + other(2); }\n";
  std::set<std::string> D = computeDirtySet(snapshotOf(Base), metaOf(Edit));
  EXPECT_TRUE(D.count("leaf"));
  EXPECT_TRUE(D.count("mid")) << "transitive caller must be dirty";
  EXPECT_TRUE(D.count("main")) << "main is always dirty";
  EXPECT_FALSE(D.count("other")) << "unrelated function must stay clean";
}

TEST(DirtySetTest, GlobalVariableEdge) {
  const char *Base = "int g;\nint h;\n"
                     "int readsG(void) { return g; }\n"
                     "int readsH(void) { return h; }\n"
                     "int main(void) { g = 1; return readsG() + readsH(); }\n";
  // Changing h's initializing statement (attributed via main's body
  // would not count — globals diff keys on the lowered initializer), so
  // flip the declaration initializer instead.
  const char *Edit = "int g;\nint h = 5;\n"
                     "int readsG(void) { return g; }\n"
                     "int readsH(void) { return h; }\n"
                     "int main(void) { g = 1; return readsG() + readsH(); }\n";
  std::set<std::string> D = computeDirtySet(snapshotOf(Base), metaOf(Edit));
  EXPECT_TRUE(D.count("readsH")) << "referencer of the changed global";
  EXPECT_TRUE(D.count("main"));
}

TEST(DirtySetTest, FunctionPointerEdgeViaBaselineIG) {
  // dispatch calls handler only through a pointer, so there is no
  // CalleeNames edge — the closure must recover the dependency from the
  // baseline invocation graph's parent links.
  const char *Base = "int handler(int x) { return x + 1; }\n"
                     "int dispatch(int (*f)(int)) { return f(3); }\n"
                     "int main(void) { return dispatch(handler); }\n";
  const char *Edit = "int handler(int x) { return x + 2; }\n"
                     "int dispatch(int (*f)(int)) { return f(3); }\n"
                     "int main(void) { return dispatch(handler); }\n";
  std::set<std::string> D = computeDirtySet(snapshotOf(Base), metaOf(Edit));
  EXPECT_TRUE(D.count("handler"));
  EXPECT_TRUE(D.count("dispatch"))
      << "indirect caller must be dirtied via the baseline IG parent edge";
}

TEST(DirtySetTest, ExternChangeDirtiesIndirectCallers) {
  // No IG edge and no CalleeNames edge reaches an extern through a
  // pointer; a changed extern set must dirty every indirect-calling
  // function wholesale.
  const char *Base = "int ext(int x);\n"
                     "int viaPtr(int (*f)(int)) { return f(1); }\n"
                     "int plain(int x) { return x; }\n"
                     "int main(void) { return viaPtr(ext) + plain(2); }\n";
  const char *Edit = "int ext(int x);\nint ext2(int x);\n"
                     "int viaPtr(int (*f)(int)) { return f(1); }\n"
                     "int plain(int x) { return x; }\n"
                     "int main(void) { return viaPtr(ext) + plain(2); }\n";
  std::set<std::string> D = computeDirtySet(snapshotOf(Base), metaOf(Edit));
  EXPECT_TRUE(D.count("viaPtr"))
      << "indirect-calling function must be dirtied on any extern change";
  EXPECT_FALSE(D.count("plain"))
      << "pointer-free functions are unaffected by extern changes";
}

//===----------------------------------------------------------------------===//
// Old format versions
//===----------------------------------------------------------------------===//

/// Returns a current-format blob with its version field set to \p Old.
std::string withFormatVersion(std::string Blob, char Old) {
  Blob[4] = Old; // little-endian u32 version after the 4-byte magic
  return Blob;
}

/// Checks that deserialize() rejects a blob of format version \p Old up
/// front, so an old baseline is never handed to the engine.
void expectOldVersionRejected(char Old) {
  std::string Blob = withFormatVersion(
      scratchBlob("int main(void) { return 0; }\n"), Old);
  ResultSnapshot S;
  std::string Err;
  EXPECT_FALSE(deserialize(Blob, S, Err));
  EXPECT_NE(Err.find("unsupported format version " + std::to_string(Old)),
            std::string::npos)
      << Err;
}

/// Runs `pta-tool --incremental-baseline=Baseline Src` and returns its
/// merged stdout and stderr, setting \p ExitCode.
std::string runIncrementalTool(const std::string &Baseline,
                               const std::string &Src, int &ExitCode) {
  std::string Cmd = std::string(PTA_TOOL_PATH) + " --incremental-baseline=" +
                    Baseline + " " + Src + " 2>&1";
  std::string Out;
  ExitCode = -1;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return Out;
  char Buf[4096];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    Out.append(Buf, N);
  ExitCode = WEXITSTATUS(pclose(Pipe));
  return Out;
}

/// An incremental run against a baseline of format version \p Old falls
/// back to a full analysis, records why, and replaces the baseline with a
/// current-format snapshot equal to a from-scratch run.
void expectOldBaselineFallsBack(char Old) {
  const char *Source = "int main(void) { int x; int *p; p = &x; return 0; }\n";
  std::string Dir = ::testing::TempDir() + "/pta_incr_old_v" +
                    std::to_string(Old);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Src = Dir + "/prog.c";
  std::string Baseline = Dir + "/prog.snapshot";
  std::ofstream(Src) << Source;
  std::ofstream(Baseline, std::ios::binary)
      << withFormatVersion(scratchBlob(Source), Old);

  int Exit = -1;
  std::string Out = runIncrementalTool(Baseline, Src, Exit);
  EXPECT_EQ(Exit, 0) << Out;
  size_t Reason =
      Out.find("unsupported format version " + std::to_string(Old));
  size_t Created = Out.find("incremental: baseline created");
  EXPECT_NE(Out.find("ignoring unreadable baseline"), std::string::npos)
      << Out;
  ASSERT_NE(Reason, std::string::npos) << Out;
  ASSERT_NE(Created, std::string::npos) << Out;
  EXPECT_LT(Reason, Created) << Out;

  std::ifstream In(Baseline, std::ios::binary);
  std::string Written((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(Written, scratchBlob(Source));
  std::filesystem::remove_all(Dir);
}

TEST(IncrementalTest, V1BlobIsRejected) { expectOldVersionRejected(1); }

TEST(IncrementalTest, V2BlobIsRejected) { expectOldVersionRejected(2); }

TEST(IncrementalTest, V1BaselineFallsBackWithRecordedReason) {
  expectOldBaselineFallsBack(1);
}

TEST(IncrementalTest, V2BaselineFallsBackWithRecordedReason) {
  expectOldBaselineFallsBack(2);
}

//===----------------------------------------------------------------------===//
// Remaining fallback gates
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, OptionFingerprintMismatchFallsBack) {
  const char *Src = "int main(void) { return 0; }\n";
  ResultSnapshot Baseline = snapshotOf(Src); // default options
  pta::Analyzer::Options Other;
  Other.SymbolicLevelLimit = 2;
  support::Telemetry Telem(true);
  IncrOutput O = IncrementalEngine::reanalyze(Baseline, Src, Other, &Telem);
  ASSERT_TRUE(O.Ok) << O.Diags.dump();
  EXPECT_EQ(O.Stats.FallbackReason, "options-mismatch");
  EXPECT_EQ(O.Blob, scratchBlob(Src, Other));
}

TEST(IncrementalTest, FrontendErrorReportsFailure) {
  const char *Src = "int main(void) { return 0; }\n";
  ResultSnapshot Baseline = snapshotOf(Src);
  pta::Analyzer::Options Opts;
  support::Telemetry Telem(true);
  IncrOutput O =
      IncrementalEngine::reanalyze(Baseline, "int main( {", Opts, &Telem);
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.Diags.hasErrors());
  EXPECT_EQ(O.Stats.FallbackReason, "frontend-error");
  EXPECT_EQ(Telem.counter("incr.fallback.frontend-error").Value, 1u);
}

/// A fallback taken after the frontend ran analyzes that parse: the
/// blob is the from-scratch blob, the counters are a scratch run's plus
/// the fallback's, and the output hands the parse and its metadata over.
void expectFallbackIsAFullRun(const std::string &Base, const std::string &Edit,
                              const std::string &Reason) {
  ResultSnapshot Baseline = snapshotOf(Base);
  pta::Analyzer::Options Opts;
  support::Telemetry Telem(true);
  IncrOutput O = IncrementalEngine::reanalyze(Baseline, Edit, Opts, &Telem);
  ASSERT_TRUE(O.Ok) << O.Diags.dump();
  EXPECT_EQ(O.Stats.FallbackReason, Reason);

  support::Telemetry Scratch(true);
  pta::Analyzer::Options SOpts = Opts;
  SOpts.Telem = &Scratch;
  Pipeline P = Pipeline::analyzeSource(Edit, SOpts);
  ASSERT_TRUE(P.Prog);
  EXPECT_EQ(O.Blob, serialize(ResultSnapshot::capture(
                        *P.Prog, P.Analysis, optionsFingerprint(Opts))));
  std::map<std::string, uint64_t, std::less<>> Want =
      Scratch.countersSnapshot();
  Want["incr.fallback." + Reason] += 1;
  EXPECT_EQ(Telem.countersSnapshot(), Want);

  ASSERT_TRUE(O.Frontend.Prog);
  EXPECT_FALSE(O.Frontend.Analysis.Analyzed);
  EXPECT_TRUE(O.Meta == O.Snapshot.Meta);
  EXPECT_TRUE(O.Meta == metaOf(Edit));
}

TEST(IncrementalTest, TypeEditFallsBackAsTypesChanged) {
  expectFallbackIsAFullRun(
      "struct s { int a; };\n"
      "int main(void) { struct s v; v.a = 1; return v.a; }\n",
      "struct s { int a; int b; };\n"
      "int main(void) { struct s v; v.a = 1; return v.a; }\n",
      "types-changed");
}

TEST(IncrementalTest, NoMainFallbackAnalyzesTheParsedProgram) {
  expectFallbackIsAFullRun(
      "int g; int *p;\nint main(void) { p = &g; return *p; }\n",
      "int g; int *p;\nint f(void) { p = &g; return *p; }\n", "no-main");
}

TEST(IncrementalTest, IncrementalAndFullRunsHandTheParseOver) {
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  IncrOutput Full = IncrementalEngine::reanalyze(nullptr, CP->Source, Opts);
  ASSERT_TRUE(Full.Ok);
  ASSERT_TRUE(Full.Frontend.Prog);
  EXPECT_TRUE(Full.Meta == Full.Snapshot.Meta);
  IncrOutput Incr =
      IncrementalEngine::reanalyze(Full.Snapshot, CP->Source, Opts);
  ASSERT_TRUE(Incr.Ok);
  EXPECT_TRUE(Incr.Stats.UsedIncremental) << Incr.Stats.FallbackReason;
  ASSERT_TRUE(Incr.Frontend.Prog);
  EXPECT_FALSE(Incr.Frontend.Analysis.Analyzed);
  EXPECT_TRUE(Incr.Meta == Full.Meta);
  // A source that does not parse hands nothing over.
  IncrOutput Bad =
      IncrementalEngine::reanalyze(Full.Snapshot, "int main( {", Opts);
  EXPECT_FALSE(Bad.Ok);
  EXPECT_FALSE(Bad.Frontend.Prog);
}

//===----------------------------------------------------------------------===//
// Canonical forms: interned key ids against the string-keyed oracle
//===----------------------------------------------------------------------===//

/// The canonical forms spelled out as strings, as an oracle: rk()
/// spells a baseline record's structural key, and a set's form is its
/// sorted "A>B:D" line list. Literal ids map to themselves.
class StringCanon {
public:
  StringCanon(const ResultSnapshot &B, const simple::Program &Live,
              CanonKeys::FrameFn Frame)
      : B(B), Frame(std::move(Frame)), LiveKeys(localIndexMap(Live)),
        Memo(B.Locations.size()), Status(B.Locations.size(), 0) {}

  const std::string &rk(uint32_t Bid) {
    static const std::string Empty;
    if (Bid >= B.Locations.size() || Status[Bid] == 1)
      return Empty;
    if (Status[Bid] == 2)
      return Memo[Bid];
    Status[Bid] = 1;
    const LocationRecord &R = B.Locations[Bid];
    std::string K;
    switch ((pta::Entity::Kind)R.EntityKind) {
    case pta::Entity::Kind::Variable:
      if (R.Owner.empty())
        K = "v||" + R.RootName + "|-1";
      else if (Frame(R.Owner) && R.LocalIndex >= 0)
        K = "v|" + R.Owner + "|" + R.RootName + "|" +
            std::to_string(R.LocalIndex);
      break;
    case pta::Entity::Kind::Retval:
      K = "r|" + R.Owner;
      break;
    case pta::Entity::Kind::Function:
      K = "f|" + R.RootName;
      break;
    case pta::Entity::Kind::String:
      K = "s|" + std::to_string(R.StringId);
      break;
    case pta::Entity::Kind::Heap:
      K = "h";
      break;
    case pta::Entity::Kind::Null:
      K = "n";
      break;
    case pta::Entity::Kind::Symbolic:
      if (R.SymParent >= 0) {
        const std::string &PK = rk((uint32_t)R.SymParent);
        if (!PK.empty())
          K = "y|" + R.Owner + "|" + PK + "|";
      }
      break;
    }
    if (!K.empty()) {
      size_t FieldCursor = 0;
      for (uint8_t PK : R.PathKinds) {
        if (PK == 0) {
          if (FieldCursor >= R.FieldNames.size()) {
            K.clear();
            break;
          }
          K += ".f:" + R.FieldNames[FieldCursor++];
        } else {
          K += PK == 1 ? "[0]" : "[1..]";
        }
      }
    }
    Status[Bid] = 2;
    Memo[Bid] = std::move(K);
    return Memo[Bid];
  }

  std::optional<std::string> baseline(const PackedSet &Ws) {
    std::vector<std::string> Lines;
    for (uint64_t W : Ws) {
      const std::string &A = rk(tripleSrc(W)), &Bk = rk(tripleDst(W));
      if (A.empty() || Bk.empty())
        return std::nullopt;
      Lines.push_back(A + ">" + Bk + (tripleDefinite(W) ? ":D" : ":P"));
    }
    return join(Lines);
  }

  std::string live(const pta::PointsToSet &S, const pta::LocationTable &L) {
    std::vector<std::string> Lines;
    S.forEach(L, [&](const pta::Location *A, const pta::Location *Bl,
                     pta::Def D) {
      Lines.push_back(LiveKeys.key(A) + ">" + LiveKeys.key(Bl) +
                      (D == pta::Def::D ? ":D" : ":P"));
    });
    return join(Lines);
  }

private:
  static std::string join(std::vector<std::string> &Lines) {
    std::sort(Lines.begin(), Lines.end());
    std::string Out;
    for (const std::string &Ln : Lines)
      Out += Ln + "\n";
    return Out;
  }

  const ResultSnapshot &B;
  CanonKeys::FrameFn Frame;
  StructuralKeys LiveKeys;
  std::vector<std::string> Memo;
  std::vector<uint8_t> Status;
};

/// Checks, over every IG input of a baseline run of \p Source and of a
/// second, live run of it, that two inputs have equal id forms exactly
/// when they have equal string forms, and that both forms agree on which
/// baseline inputs are unmappable. main's frame is not comparable, as in
/// a session (main is always dirty). Returns the number of inputs seen.
size_t expectIdFormsMatchStringForms(const std::string &Source,
                                     const std::string &Label) {
  const ResultSnapshot Base = snapshotOf(Source);
  Pipeline Live = Pipeline::analyzeSource(Source, {});
  EXPECT_TRUE(Live.Analysis.Analyzed) << Label;
  if (!Live.Analysis.Analyzed)
    return 0;
  auto Frame = [](const std::string &Owner) { return Owner != "main"; };
  CanonKeys Ids(Base, *Live.Prog, *Live.Analysis.Locs, Frame,
                [](uint32_t Id) { return std::optional<uint32_t>(Id); });
  StringCanon Strs(Base, *Live.Prog, Frame);

  std::map<std::string, CanonSet> IdOf;
  std::map<CanonSet, std::string> StrOf;
  size_t Seen = 0;
  auto Pair = [&](const std::string &S, const CanonSet &C) {
    ++Seen;
    auto [SI, NewS] = IdOf.emplace(S, C);
    auto [CI, NewC] = StrOf.emplace(C, S);
    EXPECT_TRUE(SI->second == C && CI->second == S)
        << Label << ": string and id equality disagree on\n"
        << S;
  };
  CanonSet C;
  for (const IGNodeRecord &R : Base.IG) {
    if (!R.HasInput)
      continue;
    std::optional<std::string> S = Strs.baseline(R.Input);
    bool Mapped = Ids.baseline(R.Input, C);
    EXPECT_EQ(Mapped, S.has_value()) << Label;
    if (Mapped && S)
      Pair(*S, C);
  }
  Live.Analysis.IG->forEachNode([&](const pta::IGNode *N) {
    if (!N->StoredInput)
      return;
    Ids.live(*N->StoredInput, C);
    Pair(Strs.live(*N->StoredInput, *Live.Analysis.Locs), C);
  });
  // Equal programs: every mappable baseline input has a live twin, so
  // the two runs' inputs collapse onto shared classes.
  if (Seen)
    EXPECT_LT(IdOf.size(), Seen) << Label;
  return Seen;
}

TEST(CanonKeysTest, IdEqualityIsStringEqualityOnTheCorpus) {
  size_t Seen = 0;
  for (const corpus::CorpusProgram &CP : corpus::corpus())
    Seen += expectIdFormsMatchStringForms(CP.Source, CP.Name);
  EXPECT_GT(Seen, 5000u);
}

TEST(CanonKeysTest, IdEqualityIsStringEqualityOnGeneratedPrograms) {
  size_t Seen = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    wlgen::GenConfig C;
    C.Seed = Seed;
    C.UseFunctionPointers = Seed % 2 == 1;
    Seen += expectIdFormsMatchStringForms(wlgen::generateProgram(C),
                                          "seed " + std::to_string(Seed));
  }
  EXPECT_GT(Seen, 1000u);
}

TEST(CanonKeysTest, UnmappableLocationsHaveNoForm) {
  // A frame that is not comparable leaves its locals keyless, and so
  // every baseline set naming one; a literal the remap drops likewise.
  const std::string Src = "char *g;\n"
                          "int main(void) { int x; int *p; p = &x; "
                          "g = \"s\"; return *p; }\n";
  const ResultSnapshot Base = snapshotOf(Src);
  Pipeline Live = Pipeline::analyzeSource(Src, {});
  ASSERT_TRUE(Live.Analysis.Analyzed);
  CanonKeys Ids(
      Base, *Live.Prog, *Live.Analysis.Locs,
      [](const std::string &) { return false; },
      [](uint32_t) { return std::optional<uint32_t>(); });
  ASSERT_TRUE(Base.HasMainOut);
  CanonSet C;
  EXPECT_FALSE(Ids.baseline(Base.MainOut, C));
  for (const LocationRecord &R : Base.Locations) {
    const std::string &K = Ids.baselineKey(R.Id);
    if (R.EntityKind == (uint8_t)pta::Entity::Kind::String ||
        (R.EntityKind == (uint8_t)pta::Entity::Kind::Variable &&
         !R.Owner.empty()))
      EXPECT_TRUE(K.empty()) << R.Name;
    else if (R.EntityKind != (uint8_t)pta::Entity::Kind::Symbolic)
      EXPECT_FALSE(K.empty()) << R.Name;
  }
  EXPECT_TRUE(Ids.baselineKey(uint32_t(Base.Locations.size())).empty());
}

TEST(IncrementalTest, ImplausibleStatementIdsFallBackWithoutIndexing) {
  // A baseline whose one row claims a statement id near 2^32 describes
  // no program; the session does not size its statement index by it and
  // the engine re-analyzes from scratch.
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  ResultSnapshot Baseline = snapshotOf(CP->Source);
  ASSERT_FALSE(Baseline.StmtIn.empty());
  Baseline.NumStmts = UINT32_MAX;
  Baseline.StmtIn.back().StmtId = UINT32_MAX - 1;
  IncrOutput O;
  expectEquivalent(Baseline, CP->Source, "implausible ids", &O);
  EXPECT_EQ(O.Stats.FallbackReason, "graft-failed");
}

TEST(IncrementalTest, AnalyzeLeavesTheBlobToTheCaller) {
  // The snapshot-only form produces reanalyze's snapshot without the
  // bytes; reanalyze adds exactly serialize(snapshot).
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  const ResultSnapshot Baseline = snapshotOf(CP->Source);
  const std::string Edit = wlgen::mutateSource(
      CP->Source, wlgen::MutationKind::TweakConstant, /*Salt=*/0);
  IncrOutput A = IncrementalEngine::analyze(&Baseline, Edit, {});
  IncrOutput R = IncrementalEngine::reanalyze(Baseline, Edit, {});
  ASSERT_TRUE(A.Ok && R.Ok);
  EXPECT_TRUE(A.Stats.UsedIncremental) << A.Stats.FallbackReason;
  EXPECT_TRUE(A.Blob.empty());
  EXPECT_TRUE(A.Snapshot == R.Snapshot);
  EXPECT_EQ(R.Blob, serialize(A.Snapshot));
  EXPECT_EQ(R.Blob, scratchBlob(Edit));
}

} // namespace
