//===- FaultInjection.cpp - Deterministic fault-injection registry -------------===//

#include "support/FaultInjection.h"

#include "support/Hash.h"

#include <vector>

using namespace mcpta;
using namespace mcpta::support;

namespace {

/// splitmix64: a tiny, well-mixed 64-bit permutation. Good enough to
/// turn (seed, point, evaluation index) into an independent-looking
/// draw; the registry needs reproducibility, not cryptography.
uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<std::string_view> split(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos)
      Next = S.size();
    Parts.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
  return Parts;
}

bool parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

bool parseProb(std::string_view S, double &Out) {
  // Accept "0.25", ".5", "1". Hand-rolled so a trailing junk byte is an
  // error instead of silently ignored.
  if (S.empty())
    return false;
  double V = 0.0;
  size_t I = 0;
  bool AnyDigit = false;
  for (; I < S.size() && S[I] >= '0' && S[I] <= '9'; ++I) {
    V = V * 10 + (S[I] - '0');
    AnyDigit = true;
  }
  if (I < S.size() && S[I] == '.') {
    ++I;
    double Scale = 0.1;
    for (; I < S.size() && S[I] >= '0' && S[I] <= '9'; ++I) {
      V += (S[I] - '0') * Scale;
      Scale *= 0.1;
      AnyDigit = true;
    }
  }
  if (!AnyDigit || I != S.size() || V < 0.0 || V > 1.0)
    return false;
  Out = V;
  return true;
}

} // namespace

bool FaultInjection::isKnownPoint(std::string_view Point) {
  return Point == "cache.read_io" || Point == "cache.write_io" ||
         Point == "cache.corrupt" || Point == "serve.stall" ||
         Point == "serve.queue_full" || Point == "alloc.pressure";
}

bool FaultInjection::parseArm(std::string_view Text, std::string &Error) {
  std::vector<std::string_view> Fields = split(Text, ':');
  if (Fields.size() < 2) {
    Error = "fault arm '" + std::string(Text) +
            "' needs at least point:mode";
    return false;
  }
  std::string_view Point = Fields[0];
  if (!isKnownPoint(Point)) {
    Error = "unknown fault-injection point '" + std::string(Point) + "'";
    return false;
  }
  Arm A;
  std::string_view ModeText = Fields[1];
  if (ModeText == "always") {
    A.M = Mode::Always;
  } else if (ModeText == "once") {
    A.M = Mode::Once;
  } else if (ModeText.rfind("times=", 0) == 0) {
    A.M = Mode::Times;
    if (!parseU64(ModeText.substr(6), A.N) || A.N == 0) {
      Error = "bad times=N in fault arm '" + std::string(Text) + "'";
      return false;
    }
  } else if (ModeText.rfind("every=", 0) == 0) {
    A.M = Mode::Every;
    if (!parseU64(ModeText.substr(6), A.N) || A.N == 0) {
      Error = "bad every=N in fault arm '" + std::string(Text) + "'";
      return false;
    }
  } else if (ModeText.rfind("prob=", 0) == 0) {
    A.M = Mode::Prob;
    if (!parseProb(ModeText.substr(5), A.P)) {
      Error = "bad prob=P in fault arm '" + std::string(Text) +
              "' (need 0 <= P <= 1)";
      return false;
    }
  } else {
    Error = "unknown fault mode '" + std::string(ModeText) +
            "' (expect always|once|times=N|every=N|prob=P)";
    return false;
  }
  for (size_t I = 2; I < Fields.size(); ++I) {
    size_t Eq = Fields[I].find('=');
    if (Eq == std::string_view::npos || Eq == 0) {
      Error = "bad fault parameter '" + std::string(Fields[I]) +
              "' (expect key=value)";
      return false;
    }
    std::string KeyName(Fields[I].substr(0, Eq));
    uint64_t Value = 0;
    if (!parseU64(Fields[I].substr(Eq + 1), Value)) {
      Error = "bad fault parameter value in '" + std::string(Fields[I]) + "'";
      return false;
    }
    if (KeyName == "seed")
      A.Seed = Value;
    else
      A.Params[KeyName] = Value;
  }
  Arms[std::string(Point)] = std::move(A);
  return true;
}

bool FaultInjection::parse(std::string_view Spec, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  Arms.clear();
  Enabled = false;
  if (Spec.empty()) {
    Error = "empty fault-injection spec";
    return false;
  }
  if (Spec == "on") {
    Enabled = true;
    return true;
  }
  for (std::string_view ArmText : split(Spec, ',')) {
    if (ArmText.empty()) {
      Error = "empty arm in fault-injection spec";
      Arms.clear();
      return false;
    }
    if (!parseArm(ArmText, Error)) {
      Arms.clear();
      return false;
    }
  }
  Enabled = true;
  return true;
}

bool FaultInjection::enabled() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Enabled;
}

bool FaultInjection::armed(std::string_view Point) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Arms.find(Point) != Arms.end();
}

bool FaultInjection::shouldFire(std::string_view Point) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Arms.find(Point);
  if (!Enabled || It == Arms.end())
    return false;
  Arm &A = It->second;
  uint64_t Eval = A.Evals++;
  bool Fire = false;
  switch (A.M) {
  case Mode::Always:
    Fire = true;
    break;
  case Mode::Once:
    Fire = (Eval == 0);
    break;
  case Mode::Times:
    Fire = (Eval < A.N);
    break;
  case Mode::Every:
    Fire = (Eval % A.N == 0);
    break;
  case Mode::Prob: {
    uint64_t Draw = splitmix64(A.Seed ^ fnv1a(Point) ^ (Eval * 0x9e37ull));
    // Top 53 bits -> uniform double in [0, 1).
    double U = static_cast<double>(Draw >> 11) * (1.0 / 9007199254740992.0);
    Fire = U < A.P;
    break;
  }
  }
  if (Fire)
    ++A.Fired;
  return Fire;
}

uint64_t FaultInjection::param(std::string_view Point, std::string_view Key,
                               uint64_t Default) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Arms.find(Point);
  if (It == Arms.end())
    return Default;
  auto P = It->second.Params.find(Key);
  return P == It->second.Params.end() ? Default : P->second;
}

uint64_t FaultInjection::firedCount(std::string_view Point) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Arms.find(Point);
  return It == Arms.end() ? 0 : It->second.Fired;
}

uint64_t FaultInjection::totalFired() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const auto &[Name, A] : Arms)
    Total += A.Fired;
  return Total;
}
