//===- ParallelDeterminismTest.cpp - concurrent-run byte equivalence -----------===//
//
// Each analysis runs start to finish on one thread, but in-process
// --batch tasks and serve workers run several analyses at once in one
// process, sharing the process-wide PointsToSet statistics and the
// allocator (docs/PARALLEL.md). Every corpus program is analyzed alone,
// then as two concurrent copies on a ThreadPool; each copy's
// mcpta-result-v3 blob must match the lone run's exactly.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "serve/Serialize.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mcpta;

namespace {

std::string analyzeToBlob(const std::string &Source,
                          const pta::Analyzer::Options &Opts) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  if (P.Diags.hasErrors() || !P.Analysis.Analyzed)
    return "";
  serve::ResultSnapshot Snap = serve::ResultSnapshot::capture(
      *P.Prog, P.Analysis, serve::optionsFingerprint(Opts));
  return serve::serialize(Snap);
}

/// Analyzes \p Source as \p Copies concurrent tasks on a pool of that
/// width — the serve worker pool's shape — and returns every copy's blob.
std::vector<std::string> analyzeConcurrently(const std::string &Source,
                                             const pta::Analyzer::Options &Opts,
                                             unsigned Copies) {
  std::vector<std::string> Blobs(Copies);
  support::ThreadPool Pool(Copies);
  for (unsigned I = 0; I < Copies; ++I)
    Pool.submit([&, I] { Blobs[I] = analyzeToBlob(Source, Opts); });
  Pool.wait();
  return Blobs;
}

/// Reports every copy whose blob differs from \p Lone. EXPECT_EQ on
/// the blobs would dump megabytes on failure, so only the verdict and
/// the first divergence offset are printed.
void expectAllEqual(const std::string &Lone,
                    const std::vector<std::string> &Blobs,
                    const std::string &What) {
  for (size_t I = 0; I < Blobs.size(); ++I) {
    const std::string &B = Blobs[I];
    if (B == Lone)
      continue;
    size_t Off = 0;
    while (Off < B.size() && Off < Lone.size() && B[Off] == Lone[Off])
      ++Off;
    ADD_FAILURE() << What << ": copy " << I << " of " << Blobs.size()
                  << " diverges from the lone run at byte " << Off
                  << " (sizes " << B.size() << " vs " << Lone.size() << ")";
  }
}

class ParallelDeterminism : public ::testing::TestWithParam<const char *> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  const corpus::CorpusProgram *CP = corpus::find(GetParam());
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  std::string Lone = analyzeToBlob(CP->Source, Opts);
  ASSERT_FALSE(Lone.empty());
  expectAllEqual(Lone, analyzeConcurrently(CP->Source, Opts, 2),
                 GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpus, ParallelDeterminism,
    ::testing::Values("genetic", "dry", "clinpack", "config", "toplev",
                      "compress", "mway", "hash", "misr", "xref", "stanford",
                      "fixoutput", "sim", "travel", "csuite", "msc", "lws",
                      "incrstress"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

// The fnptr resolution policies drive different IG growth; concurrent
// runs agree with a lone run under each of them.
TEST(ParallelDeterminism, HoldsAcrossFnptrPolicies) {
  const corpus::CorpusProgram *CP = corpus::find("toplev");
  ASSERT_NE(CP, nullptr);
  for (pta::FnPtrMode Mode :
       {pta::FnPtrMode::Precise, pta::FnPtrMode::AllFunctions,
        pta::FnPtrMode::AddressTaken}) {
    pta::Analyzer::Options Opts;
    Opts.FnPtr = Mode;
    std::string Lone = analyzeToBlob(CP->Source, Opts);
    ASSERT_FALSE(Lone.empty());
    expectAllEqual(Lone, analyzeConcurrently(CP->Source, Opts, 4),
                   "fnptr mode " + std::to_string(int(Mode)));
  }
}

} // namespace
