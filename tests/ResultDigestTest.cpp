//===- ResultDigestTest.cpp - pinned mcpta-result-v3 blob digests ---------===//
//
// Byte identity of the analysis result: the FNV-1a 64 digest of the
// serialized mcpta-result-v3 blob of every corpus program, under the
// default options, the context-insensitive ablation and the
// all-functions call-graph baseline. A change to how the analyzer
// computes or stores its sets (per-statement IN recording, the kernel's
// kill/gen, the set representation) must leave every digest unchanged.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "incr/Fingerprint.h"
#include "serve/Serialize.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace mcpta;

namespace {

/// Digests per program: default options, ContextSensitive=false,
/// FnPtrMode::AllFunctions.
struct Pinned {
  const char *Program;
  const char *Default;
  const char *ContextInsensitive;
  const char *AllFunctions;
};

const Pinned PinnedDigests[] = {
    {"genetic", "2ca18d388bd00d70", "e879070033d6f528", "1f4d07e66f094f99"},
    {"dry", "3c2f843e1bd9b7d7", "6af182fe77d70cb5", "1369c6a9f0767bdc"},
    {"clinpack", "055d553fd86e55f2", "65029a028afd295e", "9d012cd49418e91d"},
    {"config", "35b9768333cc254e", "09d4260523d5d948", "71c027689a75dd35"},
    {"toplev", "04dd6d86110e6e55", "53d4e43f7cda4bd0", "5f59f19093ab2fc3"},
    {"compress", "198ef8ffd6f91b45", "4b5064f24e13bcca", "4edfcaa516e9605a"},
    {"mway", "e8c476e273962acd", "ac973080b9751b36", "eefee3f0d1a75a9e"},
    {"hash", "82b4608bea51284c", "3f51fa18fdb316cc", "a6505c3057634481"},
    {"misr", "aa1520999d40f9f6", "0c47368e2ba1647a", "7a6aa61c24192d5b"},
    {"xref", "745f7f53dfd8f4f6", "9edfea82fb8591b2", "3974af52874e3715"},
    {"stanford", "013a4438f6b58065", "311c72135f824610", "5fdbc8bf180e30ca"},
    {"fixoutput", "05b70b5b669dac9d", "fb24bff14b1ed6e0", "9fec32928405040c"},
    {"sim", "17f857784864de6e", "043f01324893d804", "42dd45ad752d966b"},
    {"travel", "f8f30389d5cbb513", "72324b716a581f47", "fe9cdc640460bf70"},
    {"csuite", "bcd63d60b4d43340", "c70e65e474f4bea5", "3122dc6ac60158e1"},
    {"msc", "85bc2f3f0c736161", "a8bc97a06eb9349a", "89661bb56ac9e21c"},
    {"lws", "c7dceaa7ed4bc2d4", "6b448e3c83416219", "13506f593d9acc33"},
    {"incrstress", "5b860939cac35655", "435107f225360bae", "e26510e7e7393d0c"},
};

std::string digestOf(const std::string &Source,
                     const pta::Analyzer::Options &Opts) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  if (!P.ok())
    return "does-not-analyze";
  std::string Blob = serve::serialize(serve::ResultSnapshot::capture(
      *P.Prog, P.Analysis, serve::optionsFingerprint(Opts)));
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, incr::fnv1a(Blob));
  return Buf;
}

const Pinned *pinnedFor(const std::string &Name) {
  for (const Pinned &P : PinnedDigests)
    if (Name == P.Program)
      return &P;
  return nullptr;
}

TEST(ResultDigestTest, EveryCorpusProgramUnderThreeOptionSets) {
  pta::Analyzer::Options CI;
  CI.ContextSensitive = false;
  pta::Analyzer::Options AllFns;
  AllFns.FnPtr = pta::FnPtrMode::AllFunctions;
  size_t Checked = 0;
  for (const corpus::CorpusProgram &CP : corpus::corpus()) {
    std::string D = digestOf(CP.Source, pta::Analyzer::Options());
    std::string C = digestOf(CP.Source, CI);
    std::string A = digestOf(CP.Source, AllFns);
    const Pinned *P = pinnedFor(CP.Name);
    if (!P) {
      ADD_FAILURE() << "no pinned digests; computed:\n    {\"" << CP.Name
                    << "\", \"" << D << "\", \"" << C << "\", \"" << A
                    << "\"},";
      continue;
    }
    EXPECT_EQ(D, P->Default) << CP.Name << " (default options)";
    EXPECT_EQ(C, P->ContextInsensitive) << CP.Name << " (context-insensitive)";
    EXPECT_EQ(A, P->AllFunctions) << CP.Name << " (--fnptr=all)";
    ++Checked;
  }
  EXPECT_EQ(Checked, std::size(PinnedDigests))
      << "every pinned program is still in the corpus";
}

/// The benchmark's golden file pins the same default-options digests; the
/// two must agree, so a blob change cannot update one and not the other.
TEST(ResultDigestTest, DefaultDigestsMatchTheBenchmarkGoldenFile) {
  std::ifstream In(MCPTA_GOLDEN_DIGESTS);
  ASSERT_TRUE(In) << "cannot read " << MCPTA_GOLDEN_DIGESTS;
  std::map<std::string, std::string> Golden;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name, Digest;
    SS >> Name >> Digest;
    Golden[Name] = Digest;
  }
  for (const Pinned &P : PinnedDigests) {
    auto It = Golden.find(P.Program);
    ASSERT_NE(It, Golden.end()) << P.Program << " missing from golden file";
    EXPECT_EQ(It->second, P.Default) << P.Program;
  }
}

} // namespace
