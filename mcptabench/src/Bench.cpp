//===- Bench.cpp - Shared pieces of the mcpta benchmark -------------------===//

#include "Bench.h"

#include "incr/Fingerprint.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace mcptabench;

std::string mcptabench::hexDigest(std::string_view Bytes) {
  return fmt("%016llx",
             static_cast<unsigned long long>(mcpta::incr::fnv1a(Bytes)));
}

std::string mcptabench::fmt(const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  char Buf[512];
  int N = std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  if (N < 0)
    return "";
  if (static_cast<size_t>(N) < sizeof(Buf))
    return std::string(Buf, N);
  std::string Out(static_cast<size_t>(N) + 1, '\0');
  va_start(Args, Format);
  std::vsnprintf(Out.data(), Out.size(), Format, Args);
  va_end(Args);
  Out.resize(static_cast<size_t>(N));
  return Out;
}

double mcptabench::medianOf(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

bool mcptabench::readGolden(const std::string &Path,
                            std::map<std::string, std::string> &Out,
                            std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read golden file '" + Path + "'";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name, Digest;
    if (!(SS >> Name >> Digest)) {
      Error = "malformed golden line '" + Line + "'";
      return false;
    }
    Out[Name] = Digest;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// HostSpeed
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t kChaseSlots = 1u << 15; // 128 KiB
constexpr uint32_t kChaseSteps = 1u << 19;
constexpr uint32_t kMergeLen = 1u << 12; // 2 x 16 KiB in, 32 KiB out
constexpr uint32_t kMerges = 160;
constexpr uint64_t kTableSlots = 1u << 14; // 128 KiB
constexpr uint64_t kProbes = 1u << 19;
/// The pass's median time on the reference host (4 cores) while quiet.
constexpr double kNominalPassMs = 10.0;

/// A nonzero table key; 0 marks an empty slot.
uint64_t tableKey(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdull;
  X ^= X >> 33;
  return X | 1;
}
} // namespace

HostSpeed::HostSpeed()
    : Next(kChaseSlots), A(kMergeLen), B(kMergeLen), Merged(2 * kMergeLen),
      Table(kTableSlots, 0) {
  Rng G(0x686f7374ull);
  for (uint32_t I = 0; I < kChaseSlots; ++I)
    Next[I] = I;
  // Sattolo's shuffle leaves a single cycle, so the chase visits every
  // slot before it repeats.
  for (uint32_t I = kChaseSlots - 1; I > 0; --I)
    std::swap(Next[I], Next[G.below(I)]);
  for (uint32_t I = 0; I < kMergeLen; ++I) {
    A[I] = static_cast<uint32_t>(G.next());
    B[I] = static_cast<uint32_t>(G.next());
  }
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  for (uint64_t I = 0; I < kTableSlots / 2; ++I) {
    uint64_t Key = tableKey(2 * I), S = Key & (kTableSlots - 1);
    while (Table[S])
      S = (S + 1) & (kTableSlots - 1);
    Table[S] = Key;
  }
  sample(); // the first pass trains the branch predictors; not kept
  PassMs.clear();
}

size_t HostSpeed::sample() {
  // Touch every array first: the timed part then finds them in cache,
  // whatever the program left there.
  uint64_t Acc = 0;
  for (uint32_t X : Next)
    Acc += X;
  for (uint32_t X : A)
    Acc += X;
  for (uint32_t X : B)
    Acc += X;
  for (uint32_t X : Merged)
    Acc += X;
  for (uint64_t X : Table)
    Acc += X;

  Clock::time_point T0 = Clock::now();
  uint32_t P = 0;
  for (uint32_t I = 0; I < kChaseSteps; ++I)
    P = Next[P];
  Acc += P;
  for (uint32_t M = 0; M < kMerges; ++M) {
    // Shifted windows change the interleaving from one merge to the next.
    uint32_t Off = M % 64;
    auto End = std::merge(A.begin() + Off, A.end(), B.begin(), B.end() - Off,
                          Merged.begin());
    Acc += Merged[(Acc + M) % static_cast<size_t>(End - Merged.begin())];
  }
  for (uint64_t I = 0; I < kProbes; ++I) {
    uint64_t Key = tableKey(I % kTableSlots), S = Key & (kTableSlots - 1);
    while (Table[S] && Table[S] != Key)
      S = (S + 1) & (kTableSlots - 1);
    Acc += Table[S] == Key;
  }
  PassMs.push_back(msSince(T0));
  Sink += Acc;
  return PassMs.size() - 1;
}

double HostSpeed::scaleAt(size_t Pass) const {
  size_t Lo = Pass > 0 ? Pass - 1 : 0;
  size_t Hi = std::min(PassMs.size(), Pass + 3);
  if (Lo >= Hi)
    return 1.0;
  return kNominalPassMs /
         medianOf(std::vector<double>(
             PassMs.begin() + static_cast<std::ptrdiff_t>(Lo),
             PassMs.begin() + static_cast<std::ptrdiff_t>(Hi)));
}

std::string HostSpeed::describe() const {
  return fmt("host speed: reference pass p50 %.4f ms over %zu passes "
             "(nominal %.4f ms); end-to-end times are scaled by nominal / "
             "pass time",
             medianOf(PassMs), PassMs.size(), kNominalPassMs);
}

Samples TimedSamples::raw() const {
  Samples Out;
  for (const auto &E : V)
    Out.add(E.first);
  return Out;
}

Samples TimedSamples::scaled(const HostSpeed &S) const {
  Samples Out;
  for (const auto &[Ms, Pass] : V)
    Out.add(Ms * S.scaleAt(Pass));
  return Out;
}

double TimedSamples::scaledSumMs(const HostSpeed &S) const {
  double Sum = 0;
  for (const auto &[Ms, Pass] : V)
    Sum += Ms * S.scaleAt(Pass);
  return Sum;
}

//===----------------------------------------------------------------------===//
// Samples and Report
//===----------------------------------------------------------------------===//

double Samples::median() const { return medianOf(V); }

double Samples::tail() const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  return S[S.size() > 10 ? S.size() - 11 : 0];
}

double Samples::tailPercentile() const {
  if (V.empty())
    return 0;
  size_t Rank = V.size() > 10 ? V.size() - 10 : 1;
  return 100.0 * double(Rank) / double(V.size());
}

void Report::fail(std::string Why) {
  Correct = false;
  if (Failures.size() < 20)
    Failures.push_back(std::move(Why));
}

void Report::latency(const std::string &Prefix, const Samples &S) {
  e2e(Prefix + "_p50_ms", S.median(), "ms");
  e2e(Prefix + "_tail_ms", S.tail(), "ms");
  size_t Above = S.size() > 10 ? 10 : S.size() - std::min<size_t>(S.size(), 1);
  note(fmt("%s: %zu samples, p50 %.3f ms, tail = p%.1f (%zu samples above "
           "it) %.3f ms",
           Prefix.c_str(), S.size(), S.median(), S.tailPercentile(), Above,
           S.tail()));
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int32_t> OpenSpans;
} // namespace

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

Tracer::Span::Span(Tracer *T, std::string_view Name, uint64_t Op,
                   int32_t Parent)
    : T(T) {
  if (!T)
    return;
  if (Parent == kInherit)
    Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  Id = T->begin(Name, Op, Parent);
  OpenSpans.push_back(Id);
}

Tracer::Span::~Span() {
  if (!T)
    return;
  OpenSpans.pop_back();
  T->end(Id);
}

int32_t Tracer::begin(std::string_view Name, uint64_t Op, int32_t Parent) {
  std::ostringstream Tid;
  Tid << std::this_thread::get_id();
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] =
      ThreadIds.emplace(Tid.str(), static_cast<uint32_t>(ThreadIds.size()));
  (void)Inserted;
  Record Rec;
  Rec.Name = std::string(Name);
  Rec.Op = Op;
  Rec.Parent = Parent;
  Rec.Thread = It->second;
  Rec.StartUs = nowUs();
  Records.push_back(std::move(Rec));
  return static_cast<int32_t>(Records.size() - 1);
}

void Tracer::end(int32_t Id) {
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(Mu);
  Records[static_cast<size_t>(Id)].EndUs = Now;
}

std::vector<Tracer::LayerRow> Tracer::layerTable() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::vector<size_t>> Children(Records.size());
  for (size_t I = 0; I < Records.size(); ++I)
    if (Records[I].Parent >= 0)
      Children[static_cast<size_t>(Records[I].Parent)].push_back(I);

  std::map<std::string, LayerRow> Rows;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    double Dur = R.EndUs - R.StartUs;
    // Union of the children's intervals, clipped to this span: pool
    // children run concurrently and may overlap each other.
    std::vector<std::pair<double, double>> Iv;
    for (size_t C : Children[I])
      Iv.emplace_back(std::max(Records[C].StartUs, R.StartUs),
                      std::min(Records[C].EndUs, R.EndUs));
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, CurS = 0, CurE = -1;
    for (const auto &[S, E] : Iv) {
      if (E <= S)
        continue;
      if (S > CurE) {
        if (CurE > CurS)
          Covered += CurE - CurS;
        CurS = S;
        CurE = E;
      } else {
        CurE = std::max(CurE, E);
      }
    }
    if (CurE > CurS)
      Covered += CurE - CurS;
    LayerRow &Row = Rows[R.Name];
    Row.Name = R.Name;
    ++Row.Calls;
    Row.TotalMs += Dur / 1000.0;
    Row.SelfMs += (Dur - Covered) / 1000.0;
  }
  std::vector<LayerRow> Out;
  for (auto &[Name, Row] : Rows)
    Out.push_back(Row);
  std::sort(Out.begin(), Out.end(), [](const LayerRow &A, const LayerRow &B) {
    return A.SelfMs > B.SelfMs;
  });
  return Out;
}

double Tracer::medianPerOpMs(std::string_view Name) const {
  std::map<uint64_t, double> PerOp;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Record &R : Records)
      if (R.Name == Name)
        PerOp[R.Op] += (R.EndUs - R.StartUs) / 1000.0;
  }
  std::vector<double> V;
  for (const auto &[Op, Ms] : PerOp)
    V.push_back(Ms);
  return medianOf(std::move(V));
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    if (I)
      Out << ",\n";
    Out << fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,"
               "\"parent\":%d}}",
               R.Name.c_str(), R.Thread, R.StartUs, R.EndUs - R.StartUs,
               static_cast<unsigned long long>(R.Op), I, R.Parent);
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}
