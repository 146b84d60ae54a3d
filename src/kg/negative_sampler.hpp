// Negative sampling.
//
// §5.3: "negative samples are generated once per positive sample and are
// pre-generated outside the training loop" — pregenerate() implements that
// protocol. Two corruption strategies:
//  * Uniform — corrupt head or tail with a uniformly random entity (the
//    TransE original).
//  * Bernoulli — corrupt head with probability tph/(tph+hpt) per relation
//    (the TransH paper's sampler, reduces false negatives for 1-to-N /
//    N-to-1 relations).
// An optional filter rejects corruptions that collide with known positives.
#pragma once

#include <vector>

#include "src/common/rng.hpp"
#include "src/kg/known_triplets.hpp"
#include "src/kg/triplet.hpp"

namespace sptx::kg {

enum class CorruptionScheme { kUniform, kBernoulli };

class NegativeSampler {
 public:
  /// `filtered` rejects sampled negatives present in `positives`
  /// (bounded retries; falls back to the last candidate). A filtered
  /// sampler throws sptx::Error when N·R·N of the vocabulary overflows
  /// 64 bits (the known-triplet key, see KnownTriplets).
  NegativeSampler(const TripletStore& positives, CorruptionScheme scheme,
                  bool filtered = false);

  /// Store-free sampler for streaming sources whose triplets never live in
  /// RAM: only the vocabulary sizes are needed. Bernoulli statistics and
  /// positive-filtering both require scanning the positives, so this
  /// constructor supports only the unfiltered kUniform scheme.
  NegativeSampler(std::int64_t num_entities, std::int64_t num_relations,
                  CorruptionScheme scheme);

  /// One corrupted counterpart for `positive`.
  Triplet corrupt(const Triplet& positive, Rng& rng) const;

  /// Exact membership test against the positive set (filtered mode only;
  /// always false otherwise, and for ids outside the vocabulary).
  bool is_positive(const Triplet& t) const;

  /// One negative per positive, aligned by index — the paper's
  /// pre-generation protocol.
  std::vector<Triplet> pregenerate(std::span<const Triplet> positives,
                                   Rng& rng) const;

  /// k negatives per positive, laid out repetition-major: entry
  /// rep·|positives| + i corrupts positives[i]. Pairs with a positive batch
  /// tiled k times (DGL-KE-style negative_sample_size > 1).
  std::vector<Triplet> pregenerate_k(std::span<const Triplet> positives,
                                     int k, Rng& rng) const;

 private:
  float head_corruption_prob(std::int64_t relation) const;

  std::int64_t num_entities_;
  CorruptionScheme scheme_;
  std::vector<float> bernoulli_head_prob_;  // per relation
  KnownTriplets positives_;  // empty unless filtered
  std::int64_t num_relations_;
};

}  // namespace sptx::kg
