//===- Bench.h - Shared pieces of the mcpta benchmark -----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's common vocabulary: command-line options, the
/// seeded input generator's RNG, latency samples with the median and
/// tail rules of mcptabench/README.md, the run report (end-to-end and
/// per-layer metrics plus the output-check verdict), and the span
/// tracer the traced run records around calls into each layer.
///
/// Nothing here reaches inside the program: every span wraps a call to a
/// public function of a layer (Lexer, Parser, Simplifier, Analyzer::run,
/// clients, capture/serialize, SummaryCache, Server::handleLine,
/// IncrementalEngine, DemandEngine, ThreadPool).
///
//===----------------------------------------------------------------------===//

#ifndef MCPTABENCH_BENCH_H
#define MCPTABENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mcptabench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string TraceJson;
  /// Directory holding the committed golden files.
  std::string GoldenDir;
};

/// splitmix64: the benchmark's only source of randomness, so one seed
/// regenerates every input.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

/// FNV-1a 64 rendered as 16 hex digits: input and output digests.
std::string hexDigest(std::string_view Bytes);

/// Latency samples of one operation class.
class Samples {
public:
  void add(double Ms) { V.push_back(Ms); }
  size_t size() const { return V.size(); }
  double median() const;
  /// The highest nearest-rank percentile with at least ten samples above
  /// it (the lowest sample when there are fewer than eleven).
  double tail() const;
  /// Which percentile tail() reports, for the printed label.
  double tailPercentile() const;

private:
  std::vector<double> V;
};

/// The host's current speed, read from a fixed reference pass that
/// shares no code with the program under test and allocates nothing: a
/// pointer chase, merges of sorted arrays and open-addressing hash
/// probes over 300 KiB that is touched just before it is timed, so the
/// pass measures the core and not what the program left in the caches.
/// The host is shared, and other tenants slow its cores by up to a third
/// for minutes at a time; the reference pass slows by about the same
/// factor at the same moments. Each workload takes a pass before every
/// set-up and op (round, cycle) and one after the last, and reports its
/// end-to-end times scaled to the reference host's quiet speed: raw time
/// × nominal pass time / the pass times around it. The raw figures are
/// printed above the JSON line.
class HostSpeed {
public:
  HostSpeed();
  /// Times one reference pass; returns its index.
  size_t sample();
  /// Nominal pass time over the median of passes Pass-1 .. Pass+2 (those
  /// taken): the factor that takes a time measured between pass Pass and
  /// the next one to the reference speed. Read it after the next pass.
  double scaleAt(size_t Pass) const;
  /// A note with the median pass time and the number of passes.
  std::string describe() const;

private:
  std::vector<uint32_t> Next;   ///< one random cycle through every slot
  std::vector<uint32_t> A, B;   ///< sorted merge inputs
  std::vector<uint32_t> Merged; ///< merge output
  std::vector<uint64_t> Table;  ///< half-full open-addressing key table
  std::vector<double> PassMs;
  uint64_t Sink = 0;
};

/// Latencies, each tagged with the reference pass taken just before it.
class TimedSamples {
public:
  void add(double Ms, size_t Pass) { V.emplace_back(Ms, Pass); }
  size_t size() const { return V.size(); }
  Samples raw() const;
  /// The latencies at the reference speed.
  Samples scaled(const HostSpeed &S) const;
  /// Sum of the scaled latencies, in ms.
  double scaledSumMs(const HostSpeed &S) const;

private:
  std::vector<std::pair<double, size_t>> V;
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one benchmark run reports.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False once any output check fails.
  bool Correct = true;
  std::vector<std::string> Failures;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;

  void fail(std::string Why);
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  void e2e(std::string Name, double Value, std::string Unit) {
    EndToEnd.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void layer(std::string Name, double Value, std::string Unit) {
    PerLayer.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records a latency class as <Prefix>_p50_ms and <Prefix>_tail_ms plus
  /// a note naming the tail percentile and the sample count.
  void latency(const std::string &Prefix, const Samples &S);
};

/// printf into a std::string.
std::string fmt(const char *Format, ...) __attribute__((format(printf, 1, 2)));

/// In-memory span recorder of the traced run. Spans carry a name, start,
/// end, parent span and op id; parents default to the innermost open
/// span of the calling thread, or are passed explicitly for work handed
/// to a pool thread. A null Tracer turns every Span into a no-op, so the
/// same code serves the untraced run.
class Tracer {
public:
  struct Record {
    std::string Name;
    uint64_t Op = 0;
    int32_t Parent = -1;
    uint32_t Thread = 0;
    double StartUs = 0;
    double EndUs = 0;
  };

  static constexpr int32_t kInherit = -2;

  class Span {
  public:
    Span(Tracer *T, std::string_view Name, uint64_t Op,
         int32_t Parent = kInherit);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    /// Index of this span (for explicit parenting), -1 when untraced.
    int32_t id() const { return Id; }

  private:
    Tracer *T;
    int32_t Id = -1;
  };

  Tracer() : Epoch(Clock::now()) {}

  /// Per-layer self time: each span's duration minus the part of it its
  /// children cover, summed by span name.
  struct LayerRow {
    std::string Name;
    uint64_t Calls = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  std::vector<LayerRow> layerTable() const;

  /// Median over ops of the per-op total duration of spans named \p Name
  /// (0 when no op has one).
  double medianPerOpMs(std::string_view Name) const;

  /// Chrome trace_event JSON ("X" events; args carry op and parent).
  bool writeChromeTrace(const std::string &Path) const;

private:
  int32_t begin(std::string_view Name, uint64_t Op, int32_t Parent);
  void end(int32_t Id);
  double nowUs() const;

  Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Record> Records;
  std::map<std::string, uint32_t> ThreadIds;
};

int runDeepContexts(const Options &O, Report &R);
int runPaperCorpus(const Options &O, Report &R);
int runServeSession(const Options &O, Report &R);

/// Reads "<name> <digest>" lines from \p Path into \p Out.
bool readGolden(const std::string &Path,
                std::map<std::string, std::string> &Out, std::string &Error);

/// Median of \p V (0 when empty).
double medianOf(std::vector<double> V);

} // namespace mcptabench

#endif // MCPTABENCH_BENCH_H
