#include "src/kg/negative_sampler.hpp"

#include <map>

#include "src/common/error.hpp"

namespace sptx::kg {

NegativeSampler::NegativeSampler(std::int64_t num_entities,
                                 std::int64_t num_relations,
                                 CorruptionScheme scheme)
    : num_entities_(num_entities),
      scheme_(scheme),
      num_relations_(num_relations) {
  SPTX_CHECK(num_entities_ >= 2, "need at least two entities to corrupt");
  SPTX_CHECK(scheme_ == CorruptionScheme::kUniform,
             "store-free sampler supports only unfiltered uniform corruption "
             "(Bernoulli statistics need the positives)");
}

NegativeSampler::NegativeSampler(const TripletStore& positives,
                                 CorruptionScheme scheme, bool filtered)
    : num_entities_(positives.num_entities()),
      scheme_(scheme),
      num_relations_(positives.num_relations()) {
  SPTX_CHECK(num_entities_ >= 2, "need at least two entities to corrupt");
  if (filtered) {
    positives_ = KnownTriplets(num_entities_, num_relations_,
                               static_cast<std::size_t>(positives.size()));
    positives_.add(positives.triplets());
  }
  if (scheme_ == CorruptionScheme::kBernoulli) {
    // tph: average tails per (head, relation); hpt: heads per (tail,
    // relation). P(corrupt head) = tph / (tph + hpt), per the TransH paper.
    std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> hr_count;
    std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> tr_count;
    for (const Triplet& t : positives.triplets()) {
      hr_count[{t.head, t.relation}]++;
      tr_count[{t.tail, t.relation}]++;
    }
    std::vector<double> tph_sum(static_cast<std::size_t>(num_relations_));
    std::vector<double> tph_cnt(static_cast<std::size_t>(num_relations_));
    std::vector<double> hpt_sum(static_cast<std::size_t>(num_relations_));
    std::vector<double> hpt_cnt(static_cast<std::size_t>(num_relations_));
    for (const auto& [hr, cnt] : hr_count) {
      tph_sum[static_cast<std::size_t>(hr.second)] += cnt;
      tph_cnt[static_cast<std::size_t>(hr.second)] += 1;
    }
    for (const auto& [tr, cnt] : tr_count) {
      hpt_sum[static_cast<std::size_t>(tr.second)] += cnt;
      hpt_cnt[static_cast<std::size_t>(tr.second)] += 1;
    }
    bernoulli_head_prob_.resize(static_cast<std::size_t>(num_relations_),
                                0.5f);
    for (std::int64_t r = 0; r < num_relations_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const double tph = tph_cnt[ri] > 0 ? tph_sum[ri] / tph_cnt[ri] : 1.0;
      const double hpt = hpt_cnt[ri] > 0 ? hpt_sum[ri] / hpt_cnt[ri] : 1.0;
      bernoulli_head_prob_[ri] = static_cast<float>(tph / (tph + hpt));
    }
  }
}

bool NegativeSampler::is_positive(const Triplet& t) const {
  return positives_.in_vocabulary(t) && positives_.contains(t);
}

float NegativeSampler::head_corruption_prob(std::int64_t relation) const {
  if (scheme_ == CorruptionScheme::kUniform) return 0.5f;
  return bernoulli_head_prob_[static_cast<std::size_t>(relation)];
}

Triplet NegativeSampler::corrupt(const Triplet& positive, Rng& rng) const {
  constexpr int kMaxRetries = 16;
  Triplet neg = positive;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    neg = positive;
    const bool corrupt_head =
        rng.next_float() < head_corruption_prob(positive.relation);
    const auto e = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(num_entities_)));
    if (corrupt_head) {
      neg.head = e;
    } else {
      neg.tail = e;
    }
    if (neg == positive) continue;           // no-op corruption, retry
    if (is_positive(neg)) continue;          // false negative, retry
    return neg;
  }
  return neg;
}

std::vector<Triplet> NegativeSampler::pregenerate(
    std::span<const Triplet> positives, Rng& rng) const {
  std::vector<Triplet> negatives;
  negatives.reserve(positives.size());
  for (const Triplet& p : positives) negatives.push_back(corrupt(p, rng));
  return negatives;
}

std::vector<Triplet> NegativeSampler::pregenerate_k(
    std::span<const Triplet> positives, int k, Rng& rng) const {
  SPTX_CHECK(k >= 1, "need at least one negative per positive");
  std::vector<Triplet> negatives;
  negatives.reserve(positives.size() * static_cast<std::size_t>(k));
  for (int rep = 0; rep < k; ++rep) {
    for (const Triplet& p : positives) negatives.push_back(corrupt(p, rng));
  }
  return negatives;
}

}  // namespace sptx::kg
