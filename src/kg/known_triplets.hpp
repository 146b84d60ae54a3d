// The exact known-triplet filter.
//
// One set of known triplets serves every "is this a known positive?" test:
// the filtered negative sampler rejects corruptions that are positives, and
// the filtered link-prediction protocol (eval and serving) skips known
// positives when it ranks a candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>

#include "src/kg/triplet.hpp"

namespace sptx::kg {

/// Exact set of known triplets. Membership is decided on a collision-free
/// mixed-radix key h·(R·N) + r·N + t over the vocabulary fixed at
/// construction, so the filter stays exact at any id scale the key fits
/// (checked). An empty filter excludes nothing.
class KnownTriplets {
 public:
  KnownTriplets() = default;
  /// `expected` sizes the table for that many add()ed triplets. Throws
  /// sptx::Error when N·R·N overflows the 64-bit key.
  KnownTriplets(std::int64_t num_entities, std::int64_t num_relations,
                std::size_t expected = 0);

  /// Insert every triplet. Ids outside the vocabulary are skipped: no
  /// candidate can ever name them.
  void add(std::span<const Triplet> triplets);

  /// Whether every id of `t` lies in the vocabulary.
  bool in_vocabulary(const Triplet& t) const {
    return t.head >= 0 && t.head < num_entities_ && t.tail >= 0 &&
           t.tail < num_entities_ && t.relation >= 0 &&
           t.relation < num_relations_;
  }

  /// `t` must lie in the vocabulary, as every candidate of a validated
  /// query does (a range check here costs the rank loop ~20%).
  bool contains(const Triplet& t) const {
    return !keys_.empty() && keys_.count(key(t)) > 0;
  }

 private:
  std::uint64_t key(const Triplet& t) const {
    const auto n = static_cast<std::uint64_t>(num_entities_);
    const auto r = static_cast<std::uint64_t>(num_relations_);
    return (static_cast<std::uint64_t>(t.head) * r +
            static_cast<std::uint64_t>(t.relation)) *
               n +
           static_cast<std::uint64_t>(t.tail);
  }

  std::int64_t num_entities_ = 0;
  std::int64_t num_relations_ = 0;
  std::unordered_set<std::uint64_t> keys_;
};

}  // namespace sptx::kg
