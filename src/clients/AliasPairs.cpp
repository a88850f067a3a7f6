//===- AliasPairs.cpp - Alias pair generation ---------------------------------===//

#include "clients/AliasPairs.h"

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace mcpta;
using namespace mcpta::clients;
using namespace mcpta::pta;

std::set<std::pair<std::string, std::string>>
mcpta::clients::aliasPairs(const PointsToSet &S, const LocationTable &Locs,
                           unsigned MaxDerefs) {
  // Dense slots: every location the set mentions, in id order.
  const PointsToSet::Entry *E = S.entries();
  const size_t NE = S.size();
  std::vector<LocationId> Ids;
  Ids.reserve(2 * NE);
  for (size_t I = 0; I < NE; ++I) {
    Ids.push_back(E[I].src());
    Ids.push_back(E[I].dst());
  }
  std::sort(Ids.begin(), Ids.end());
  Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
  const size_t NS = Ids.size();
  auto slot = [&](LocationId Id) {
    return static_cast<uint32_t>(
        std::lower_bound(Ids.begin(), Ids.end(), Id) - Ids.begin());
  };

  // Dereference edges (source slot, target slot); NULL is never
  // dereferenced into.
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  Edges.reserve(NE);
  for (size_t I = 0; I < NE; ++I)
    if (!Locs.byId(E[I].dst())->isNull())
      Edges.emplace_back(slot(E[I].src()), slot(E[I].dst()));

  // The access expressions designating each slot. Expression (k, b) is
  // k stars prefixed to the name of slot b, coded k * NS + b. Depth 0:
  // the slot's own name. Depth k+1: "*e" for every depth-k e designating
  // some X with (X, L) in S. Each level is deduplicated per slot.
  std::vector<std::vector<size_t>> Exprs(NS);
  std::vector<std::vector<uint32_t>> Frontier(NS);
  for (uint32_t B = 0; B < NS; ++B) {
    Exprs[B].push_back(B);
    Frontier[B].push_back(B);
  }
  for (unsigned Depth = 1; Depth <= MaxDerefs; ++Depth) {
    std::vector<std::vector<uint32_t>> Next(NS);
    for (const auto &[Src, Dst] : Edges)
      Next[Dst].insert(Next[Dst].end(), Frontier[Src].begin(),
                       Frontier[Src].end());
    for (uint32_t L = 0; L < NS; ++L) {
      std::vector<uint32_t> &F = Next[L];
      std::sort(F.begin(), F.end());
      F.erase(std::unique(F.begin(), F.end()), F.end());
      for (uint32_t B : F)
        Exprs[L].push_back(Depth * NS + B);
    }
    Frontier = std::move(Next);
  }

  // Rank every distinct expression string once; equal strings share a
  // rank, so rank order is string order.
  const size_t NCodes = (static_cast<size_t>(MaxDerefs) + 1) * NS;
  std::vector<uint8_t> Used(NCodes, 0);
  for (const std::vector<size_t> &Es : Exprs)
    for (size_t C : Es)
      Used[C] = 1;
  std::vector<std::string> Names(NS);
  for (uint32_t B = 0; B < NS; ++B)
    Names[B] = Locs.byId(Ids[B])->str();
  std::vector<std::pair<std::string, size_t>> Spelled;
  for (size_t C = 0; C < NCodes; ++C)
    if (Used[C])
      Spelled.emplace_back(std::string(C / NS, '*') + Names[C % NS], C);
  std::sort(Spelled.begin(), Spelled.end());
  std::vector<uint32_t> RankOf(NCodes, 0);
  std::vector<const std::string *> ByRank;
  for (const auto &[Str, C] : Spelled) {
    if (ByRank.empty() || *ByRank.back() != Str)
      ByRank.push_back(&Str);
    RankOf[C] = static_cast<uint32_t>(ByRank.size() - 1);
  }

  // Candidate pairs as (rank, rank) words, deduplicated across slots.
  std::vector<uint64_t> Words;
  std::vector<uint32_t> Ranks;
  for (const std::vector<size_t> &Es : Exprs) {
    Ranks.clear();
    for (size_t C : Es)
      Ranks.push_back(RankOf[C]);
    std::sort(Ranks.begin(), Ranks.end());
    Ranks.erase(std::unique(Ranks.begin(), Ranks.end()), Ranks.end());
    for (size_t I = 0; I < Ranks.size(); ++I)
      for (size_t J = I + 1; J < Ranks.size(); ++J)
        Words.push_back((static_cast<uint64_t>(Ranks[I]) << 32) | Ranks[J]);
  }
  std::sort(Words.begin(), Words.end());
  Words.erase(std::unique(Words.begin(), Words.end()), Words.end());

  std::set<std::pair<std::string, std::string>> Out;
  for (uint64_t W : Words)
    Out.emplace_hint(Out.end(), *ByRank[W >> 32], *ByRank[W & 0xffffffffu]);
  return Out;
}

bool mcpta::clients::hasAlias(
    const std::set<std::pair<std::string, std::string>> &Pairs,
    const std::string &A, const std::string &B) {
  return Pairs.count({A, B}) || Pairs.count({B, A});
}
