//===- SerializeTest.cpp - mcpta-result-v3 round-trip properties ---------------===//
//
// The serialized result format's two contracts (serve/Serialize.h):
//
//  1. Determinism: serialize → deserialize → serialize is byte-identical,
//     and the deserialized snapshot compares equal to the captured one —
//     points-to sets, IG node kinds, degradations, and client outputs —
//     for every corpus program.
//  2. Corruption tolerance: truncated, bit-flipped, or wrong-header
//     input makes deserialize() return false with a message; it never
//     crashes, reads out of bounds, or silently accepts garbage.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "corpus/Corpus.h"
#include "ig/InvocationGraph.h"
#include "serve/Serialize.h"
#include "support/Version.h"
#include "wlgen/WorkloadGen.h"

#include <algorithm>
#include <map>
#include <set>

using namespace mcpta;
using namespace mcpta::serve;

namespace {

ResultSnapshot captureSource(const std::string &Source,
                             const pta::Analyzer::Options &Opts = {}) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  return ResultSnapshot::capture(*P.Prog, P.Analysis, optionsFingerprint(Opts));
}

TEST(SerializeTest, RoundTripEveryCorpusProgram) {
  for (const corpus::CorpusProgram &CP : corpus::corpus()) {
    pta::Analyzer::Options Opts;
    Pipeline P = Pipeline::analyzeSource(CP.Source, Opts);
    ASSERT_FALSE(P.Diags.hasErrors()) << CP.Name << ":\n" << P.Diags.dump();
    ASSERT_TRUE(P.Analysis.Analyzed) << CP.Name;

    ResultSnapshot S =
        ResultSnapshot::capture(*P.Prog, P.Analysis, optionsFingerprint(Opts));
    std::string Blob = serialize(S);
    ASSERT_FALSE(Blob.empty()) << CP.Name;

    ResultSnapshot Back;
    std::string Err;
    ASSERT_TRUE(deserialize(Blob, Back, Err)) << CP.Name << ": " << Err;

    // Full structural equality: locations, MainOut/StmtIn triples, IG
    // shape with node kinds and memoized sets, degradations, warnings,
    // alias pairs, read/write sets.
    EXPECT_TRUE(S == Back) << CP.Name;

    // Byte-identical re-serialization (the cache dedupes on this).
    EXPECT_EQ(Blob, serialize(Back)) << CP.Name;
  }
}

TEST(SerializeTest, RoundTripPreservesDegradations) {
  // A tight IG-node budget forces the governance layer to degrade; the
  // degradation records must survive the trip.
  pta::Analyzer::Options Opts;
  Opts.Limits.MaxIGNodes = 2;
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  Pipeline P = Pipeline::analyzeSource(CP->Source, Opts);
  ASSERT_FALSE(P.Diags.hasErrors());
  ASSERT_FALSE(P.Analysis.Degradations.empty());

  ResultSnapshot S =
      ResultSnapshot::capture(*P.Prog, P.Analysis, optionsFingerprint(Opts));
  EXPECT_TRUE(S.degraded());

  ResultSnapshot Back;
  std::string Err;
  ASSERT_TRUE(deserialize(serialize(S), Back, Err)) << Err;
  EXPECT_EQ(S.Degradations.size(), Back.Degradations.size());
  EXPECT_TRUE(S == Back);
}

TEST(SerializeTest, RoundTripWithoutStmtSets) {
  pta::Analyzer::Options Opts;
  Opts.RecordStmtSets = false;
  ResultSnapshot S = captureSource(
      "int main(void) { int x; int *p; p = &x; return *p; }", Opts);
  EXPECT_TRUE(S.StmtIn.empty());

  ResultSnapshot Back;
  std::string Err;
  std::string Blob = serialize(S);
  ASSERT_TRUE(deserialize(Blob, Back, Err)) << Err;
  EXPECT_TRUE(S == Back);
  EXPECT_EQ(Blob, serialize(Back));
}

TEST(SerializeTest, SnapshotAnswersQueries) {
  ResultSnapshot S = captureSource("int main(void) {\n"
                                   "  int x; int *p; int *q;\n"
                                   "  p = &x; q = p;\n"
                                   "  return *q;\n"
                                   "}");
  EXPECT_GE(S.locationIdByName("p"), 0);
  EXPECT_EQ(S.locationIdByName("no_such_var"), -1);

  auto Targets = S.pointsToTargets("p");
  ASSERT_EQ(Targets.size(), 1u);
  EXPECT_EQ(Targets[0].first, "x");
  EXPECT_TRUE(Targets[0].second); // definite

  // p and q both point to x: (*p, *q) alias, and each aliases x.
  EXPECT_TRUE(S.aliased("*p", "*q"));
  EXPECT_TRUE(S.aliased("*q", "*p")); // order-insensitive
  EXPECT_TRUE(S.aliased("*p", "x"));
  EXPECT_FALSE(S.aliased("p", "q"));

  // Read/write sets: main reads x through q, writes x's address into p.
  ASSERT_EQ(S.Writes.count("main"), 1u);
  const std::vector<std::string> &W = S.Writes.at("main");
  EXPECT_NE(std::find(W.begin(), W.end(), "p"), W.end());
}

TEST(SerializeTest, TruncationAlwaysFailsCleanly) {
  ResultSnapshot S = captureSource(
      "int g; int main(void) { int *p; p = &g; return *p; }");
  std::string Blob = serialize(S);
  ASSERT_GT(Blob.size(), 16u);

  // Every proper prefix must be rejected — no crash, no acceptance.
  for (size_t Len = 0; Len < Blob.size(); ++Len) {
    ResultSnapshot Out;
    std::string Err;
    EXPECT_FALSE(deserialize(std::string_view(Blob.data(), Len), Out, Err))
        << "accepted a " << Len << "-byte prefix of a " << Blob.size()
        << "-byte blob";
    EXPECT_FALSE(Err.empty());
  }
}

TEST(SerializeTest, BadMagicAndWrongVersionRejected) {
  ResultSnapshot S = captureSource("int main(void) { return 0; }");
  std::string Blob = serialize(S);

  std::string BadMagic = Blob;
  BadMagic[0] = 'X';
  ResultSnapshot Out;
  std::string Err;
  EXPECT_FALSE(deserialize(BadMagic, Out, Err));
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;

  // The format version lives right after the 4-byte magic
  // (little-endian u32); a future version must be rejected, not
  // misparsed.
  std::string BadVersion = Blob;
  BadVersion[4] = static_cast<char>(version::kResultFormatVersion + 1);
  Err.clear();
  EXPECT_FALSE(deserialize(BadVersion, Out, Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(SerializeTest, BitFlipsNeverCrash) {
  ResultSnapshot S = captureSource("struct N { struct N *next; int v; };\n"
                                   "int main(void) {\n"
                                   "  struct N a; struct N *p;\n"
                                   "  a.next = &a; p = a.next;\n"
                                   "  return p->v;\n"
                                   "}");
  std::string Blob = serialize(S);

  // Flip one bit at a time across the whole blob. A flip inside string
  // payload may legally still parse; a flip in structure must fail.
  // Either way: terminate, never crash.
  for (size_t I = 0; I < Blob.size(); ++I) {
    for (int Bit = 0; Bit < 8; Bit += 3) {
      std::string Mutated = Blob;
      Mutated[I] = static_cast<char>(Mutated[I] ^ (1 << Bit));
      ResultSnapshot Out;
      std::string Err;
      (void)deserialize(Mutated, Out, Err);
    }
  }
  SUCCEED();
}

TEST(SerializeTest, TrailingGarbageRejected) {
  ResultSnapshot S = captureSource("int main(void) { return 0; }");
  std::string Blob = serialize(S) + "extra";
  ResultSnapshot Out;
  std::string Err;
  EXPECT_FALSE(deserialize(Blob, Out, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(SerializeTest, OptionsFingerprintCoversEveryKnob) {
  pta::Analyzer::Options Base;
  const std::string FP = optionsFingerprint(Base);

  auto Differs = [&FP](const pta::Analyzer::Options &O) {
    return optionsFingerprint(O) != FP;
  };

  pta::Analyzer::Options O = Base;
  O.FnPtr = pta::FnPtrMode::AllFunctions;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.ContextSensitive = false;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.RecordStmtSets = false;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.SymbolicLevelLimit = 2;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.MaxLoopIterations = 7;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.Limits.TimeoutMs = 100;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.Limits.MaxStmtVisits = 1000;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.Limits.MaxLocations = 500;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.Limits.MaxIGNodes = 50;
  EXPECT_TRUE(Differs(O));
  O = Base;
  O.Limits.MaxRecPasses = 3;
  EXPECT_TRUE(Differs(O));

  // Equal options fingerprint equally.
  EXPECT_EQ(optionsFingerprint(Base), optionsFingerprint(pta::Analyzer::Options{}));
}

/// The little-endian bytes of \p V.
std::string le32(uint32_t V) {
  return {static_cast<char>(V), static_cast<char>(V >> 8),
          static_cast<char>(V >> 16), static_cast<char>(V >> 24)};
}

/// One run: its source id, its pair count, then (dst, definite) pairs.
std::string run(uint32_t Src,
                std::initializer_list<std::pair<uint32_t, bool>> Pairs) {
  std::string Out = le32(Src) + le32(static_cast<uint32_t>(Pairs.size()));
  for (const auto &[Dst, Definite] : Pairs)
    Out += le32(Dst) + std::string(1, Definite ? '\1' : '\0');
  return Out;
}

TEST(SerializeTest, PackedWordsUseThePointsToEntryLayout) {
  EXPECT_EQ(packTriple(1, 2, /*Definite=*/true), (uint64_t(1) << 32) | (2u << 1));
  EXPECT_EQ(packTriple(1, 2, /*Definite=*/false),
            (uint64_t(1) << 32) | (2u << 1) | 1u);
  const uint64_t W = packTriple(0xfffffffeu, 0x7fffffffu, false);
  EXPECT_EQ(tripleSrc(W), 0xfffffffeu);
  EXPECT_EQ(tripleDst(W), 0x7fffffffu);
  EXPECT_FALSE(tripleDefinite(W));
}

/// A captured snapshot with at least ten canonical locations whose
/// StmtIn is one row, statement 1, holding \p Set.
ResultSnapshot withRow(const PackedSet &Set) {
  ResultSnapshot S = captureSource("int a, b, c, d, e;\n"
                                   "int main(void) {\n"
                                   "  int *p; int *q; int *r; int *s; int *t;\n"
                                   "  p = &a; q = &b; r = &c; s = &d; t = &e;\n"
                                   "  return 0;\n"
                                   "}\n");
  EXPECT_GE(S.Locations.size(), 10u);
  EXPECT_GT(S.NumStmts, 1u);
  S.StmtIn = {{1, Set}};
  return S;
}

TEST(SerializeTest, SetEncodingIsPerSourceRuns) {
  // The v3 bytes of each set, built by hand: a run count, then per
  // source its id, its pair count and 5-byte (dst, definite) pairs.
  // serialize() must write exactly these bytes after the StmtIn row's
  // count and statement id, and deserialize() must read the row back.
  const uint32_t MaxDst = 0x7fffffffu; // 2^31 - 1, the largest that packs
  struct Case {
    const char *Name;
    PackedSet Set;
    std::string Bytes;
  };
  const Case Cases[] = {
      {"empty", {}, le32(0)},
      {"one run",
       {packTriple(3, 1, true), packTriple(3, 4, true)},
       le32(1) + run(3, {{1, true}, {4, true}})},
      {"many runs",
       {packTriple(0, 5, true), packTriple(2, 0, true), packTriple(2, 1, true),
        packTriple(7, 7, true)},
       le32(3) + run(0, {{5, true}}) + run(2, {{0, true}, {1, true}}) +
           run(7, {{7, true}})},
      {"mixed D/P",
       {packTriple(1, 2, true), packTriple(1, 3, false),
        packTriple(4, 0, false)},
       le32(2) + run(1, {{2, true}, {3, false}}) + run(4, {{0, false}})},
      {"largest dst",
       {packTriple(9, 0, true), packTriple(9, MaxDst, false)},
       le32(1) + run(9, {{0, true}, {MaxDst, false}})},
  };
  const std::string Row = le32(1) + le32(1); // one row, statement 1
  const size_t EmptyBlob = serialize(withRow({})).size();
  std::string Pre, Post; // the blob around the row's set bytes
  for (const Case &C : Cases) {
    ResultSnapshot S = withRow(C.Set);
    const std::string Blob = serialize(S);
    const size_t At = Blob.find(Row + C.Bytes);
    ASSERT_NE(At, std::string::npos) << C.Name;
    EXPECT_EQ(At, Blob.rfind(Row + C.Bytes)) << C.Name;
    EXPECT_EQ(Blob.size(), EmptyBlob - 4 + C.Bytes.size()) << C.Name;
    if (Pre.empty()) {
      Pre = Blob.substr(0, At + Row.size());
      Post = Blob.substr(At + Row.size() + C.Bytes.size());
    }
    if (tripleDst(C.Set.empty() ? 0 : C.Set.back()) >= S.Locations.size())
      continue; // no snapshot has 2^31 locations to read it back against
    ResultSnapshot Back;
    std::string Err;
    ASSERT_TRUE(deserialize(Blob, Back, Err)) << C.Name << ": " << Err;
    EXPECT_TRUE(Back == S) << C.Name;
  }

  // The reader rejects every malformed set in a row.
  const std::pair<const char *, std::string> Bad[] = {
      {"dst does not pack", le32(1) + run(0, {{MaxDst + 1, true}})},
      {"dst out of range", le32(1) + run(0, {{5000, true}})},
      {"src out of range", le32(1) + run(5000, {{0, true}})},
      {"unsorted runs", le32(2) + run(2, {{0, true}}) + run(1, {{0, true}})},
      {"unsorted pairs", le32(1) + run(1, {{3, true}, {2, true}})},
      {"definite byte", le32(1) + le32(1) + le32(1) + le32(0) + '\2'},
      {"empty run", le32(1) + run(1, {})},
  };
  ResultSnapshot Back;
  std::string Err;
  ASSERT_TRUE(deserialize(Pre + le32(0) + Post, Back, Err)) << Err;
  for (const auto &[Name, Bytes] : Bad) {
    Err.clear();
    EXPECT_FALSE(deserialize(Pre + Bytes + Post, Back, Err)) << Name;
    EXPECT_FALSE(Err.empty()) << Name;
  }
}

TEST(SerializeTest, EqualResultsSerializeIdentically) {
  // Two independent runs of the same (source, options) must produce the
  // same bytes — the determinism the content-addressed cache relies on.
  const corpus::CorpusProgram *CP = corpus::find("misr");
  ASSERT_NE(CP, nullptr);
  std::string A = serialize(captureSource(CP->Source));
  std::string B = serialize(captureSource(CP->Source));
  EXPECT_EQ(A, B);
}

/// Asserts that every location capture() emits has its own structural
/// key. capture() visits locations in live-id order and sorts them by
/// key, so two equal keys would let creation order leak into the bytes.
void expectDistinctCanonicalKeys(const std::string &Source,
                                 const pta::Analyzer::Options &Opts,
                                 const std::string &Label) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  ASSERT_FALSE(P.Diags.hasErrors()) << Label << ":\n" << P.Diags.dump();
  const pta::Analyzer::Result &Res = P.Analysis;
  const pta::LocationTable &Locs = *Res.Locs;

  // The captured location set, rebuilt independently: every location a
  // serialized set mentions, closed over symbolic parents.
  std::set<pta::LocationId> Ids;
  auto addSet = [&](const pta::PointsToSet &PS) {
    for (size_t I = 0; I < PS.size(); ++I) {
      Ids.insert(PS.entries()[I].src());
      Ids.insert(PS.entries()[I].dst());
    }
  };
  if (Res.MainOut)
    addSet(*Res.MainOut);
  for (const auto &Set : Res.StmtIn)
    if (Set)
      addSet(*Set);
  if (Res.IG)
    Res.IG->forEachNode([&](const pta::IGNode *N) {
      if (N->StoredInput)
        addSet(*N->StoredInput);
      if (N->StoredOutput)
        addSet(*N->StoredOutput);
    });
  std::vector<pta::LocationId> Work(Ids.begin(), Ids.end());
  while (!Work.empty()) {
    const pta::Entity *E = Locs.byId(Work.back())->root();
    Work.pop_back();
    if (E->isSymbolic() && Ids.insert(E->symbolicParent()->id()).second)
      Work.push_back(E->symbolicParent()->id());
  }

  ResultSnapshot S =
      ResultSnapshot::capture(*P.Prog, Res, optionsFingerprint(Opts));
  ASSERT_EQ(Ids.size(), S.Locations.size()) << Label;

  StructuralKeys Keys(localIndexMap(*P.Prog));
  std::map<std::string, pta::LocationId> ByKey;
  for (pta::LocationId Id : Ids)
    EXPECT_TRUE(ByKey.emplace(Keys.key(Locs.byId(Id)), Id).second)
        << Label << ": two captured locations share the key "
        << Keys.key(Locs.byId(Id));

  // And capture emits them in strict key order.
  size_t I = 0;
  for (const auto &[Key, Id] : ByKey) {
    ASSERT_LT(I, S.Locations.size()) << Label;
    EXPECT_EQ(S.Locations[I++].Name, Locs.byId(Id)->str())
        << Label << ": record " << I - 1 << " out of key order (" << Key
        << ")";
  }
}

std::vector<std::pair<std::string, pta::Analyzer::Options>> optionSets() {
  pta::Analyzer::Options Precise, Insensitive, AllFns;
  Insensitive.ContextSensitive = false;
  AllFns.FnPtr = pta::FnPtrMode::AllFunctions;
  return {{"precise", Precise},
          {"context-insensitive", Insensitive},
          {"fnptr=all", AllFns}};
}

TEST(SerializeTest, CanonicalKeysArePairwiseDistinctOnCorpus) {
  for (const corpus::CorpusProgram &CP : corpus::corpus())
    for (const auto &[Name, Opts] : optionSets())
      expectDistinctCanonicalKeys(CP.Source, Opts,
                                  std::string(CP.Name) + " " + Name);
}

TEST(SerializeTest, CanonicalKeysSeparateShadowedLocals) {
  // Two same-name locals of one function differ only in LocalIndex.
  expectDistinctCanonicalKeys("int g; int h;\n"
                              "int main(void) {\n"
                              "  int *p; p = &g;\n"
                              "  { int *p; p = &h; }\n"
                              "  return *p;\n"
                              "}\n",
                              {}, "shadowed locals");
}

TEST(SerializeTest, CanonicalKeysArePairwiseDistinctOnGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    wlgen::GenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.UseFunctionPointers = Seed % 2 == 1;
    expectDistinctCanonicalKeys(wlgen::generateProgram(Cfg), {},
                                "seed " + std::to_string(Seed));
  }
}

} // namespace
