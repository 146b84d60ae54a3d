#include "src/eval/candidates.hpp"

#include <algorithm>

#include "src/profiling/counters.hpp"

namespace sptx::eval {

std::vector<float> score_candidates(const models::KgeModel& model,
                                    const CandidateQuery& query) {
  const index_t n = model.num_entities();
  std::vector<Triplet> candidates(static_cast<std::size_t>(n));
  for (index_t e = 0; e < n; ++e)
    candidates[static_cast<std::size_t>(e)] = query.candidate(e);
  return model.score(candidates);
}

std::vector<float> score_candidates(const models::KgeModel& model,
                                    const CandidateQuery& query,
                                    std::span<const index_t> ids) {
  // 512 triplets ≈ 12 KB of staging — resident in L1/L2 alongside the rows
  // the scorer gathers, and no per-query heap allocation for them.
  constexpr std::size_t kBlock = 512;
  Triplet block[kBlock];
  std::vector<float> scores(ids.size());
  for (std::size_t offset = 0; offset < ids.size(); offset += kBlock) {
    const std::size_t n = std::min(kBlock, ids.size() - offset);
    for (std::size_t i = 0; i < n; ++i)
      block[i] = query.candidate(ids[offset + i]);
    const std::vector<float> s =
        model.score(std::span<const Triplet>(block, n));
    std::copy(s.begin(), s.end(),
              scores.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return scores;
}

double filtered_rank(std::span<const float> scores, const CandidateQuery& query,
                     std::int64_t truth, bool higher_is_better,
                     const kg::KnownTriplets& known) {
  const float truth_score = scores[static_cast<std::size_t>(truth)];
  std::int64_t better = 0, ties = 0, probes = 0;
  for (index_t e = 0; e < static_cast<index_t>(scores.size()); ++e) {
    const float s = scores[static_cast<std::size_t>(e)];
    const bool beats = higher_is_better ? s > truth_score : s < truth_score;
    // Only a candidate that beats or ties the truth can move the rank, so
    // only those reach the filter.
    if (!beats && s != truth_score) continue;
    if (e == truth) continue;
    ++probes;
    if (known.contains(query.candidate(e))) continue;
    if (beats) {
      ++better;
    } else {
      ++ties;
    }
  }
  profiling::count_event(profiling::Counter::kFilterProbes, probes);
  return 1.0 + static_cast<double>(better) + static_cast<double>(ties) / 2.0;
}

}  // namespace sptx::eval
