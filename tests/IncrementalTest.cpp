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
#include "incr/Fingerprint.h"
#include "incr/IncrementalEngine.h"
#include "serve/Serialize.h"
#include "wlgen/WorkloadGen.h"

#include <sys/wait.h>

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

} // namespace
