//===- AllocationTest.cpp - heap allocations on the points-to hot path ----===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
// Counts every heap allocation one Analyzer::run makes on incrstress,
// the paper's exponential-context worst case, and bounds the count per
// statement visit. Wall time on a shared host moves by tens of percent
// between runs; this count is the same on every run of one build, so a
// regression in the kernel's allocation behaviour fails here outright.
//
// This is its own executable: the counting operator new below replaces
// the global one for the whole process.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// Every form the standard library uses is replaced, so that no block
// allocated here is released by a runtime's own operator delete (a
// sanitizer runtime reports that as a mismatch). GCC cannot see that
// these operator new forms allocate with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new(std::size_t N) {
  if (void *P = ::operator new(N, std::nothrow))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return ::operator new(N, std::nothrow);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
#pragma GCC diagnostic pop

using namespace mcpta;

namespace {

/// Per statement visit, with RecordStmtSets on. Growing a StmtIn run,
/// growing a set past the inline tier and detaching a shared block must
/// allocate; evaluating an assignment's L/R-locations must not. The
/// measured rate is 0.347; the bound keeps the same relative margin
/// (0.75 over 0.529) the previous bound had.
constexpr double MaxAllocationsPerVisit = 0.49;

TEST(AllocationTest, IncrstressAllocationsPerStatementVisit) {
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  ASSERT_NE(CP, nullptr);
  Pipeline P = Pipeline::frontend(CP->Source);
  ASSERT_TRUE(P.Prog) << P.Diags.dump();

  // The visit count comes from a traced run; the counted run is
  // untraced, like pta-tool without --json.
  support::Telemetry T;
  pta::Analyzer::Options Traced;
  Traced.Telem = &T;
  ASSERT_TRUE(pta::Analyzer::run(*P.Prog, Traced).Analyzed);
  uint64_t Visits = T.countersSnapshot()["pta.stmt_visits"];
  ASSERT_GT(Visits, 0u);

  pta::Analyzer::Options Opts;
  ASSERT_TRUE(Opts.RecordStmtSets);
  uint64_t Before = Allocations.load();
  pta::Analyzer::Result R = pta::Analyzer::run(*P.Prog, Opts);
  uint64_t Allocs = Allocations.load() - Before;
  ASSERT_TRUE(R.Analyzed);

  double PerVisit = static_cast<double>(Allocs) / static_cast<double>(Visits);
  RecordProperty("allocations", std::to_string(Allocs));
  RecordProperty("stmt_visits", std::to_string(Visits));
  EXPECT_LE(PerVisit, MaxAllocationsPerVisit)
      << Allocs << " allocations over " << Visits << " statement visits";
  std::printf("incrstress: %llu allocations, %llu statement visits, %.3f "
              "per visit\n",
              static_cast<unsigned long long>(Allocs),
              static_cast<unsigned long long>(Visits), PerVisit);
}

} // namespace
