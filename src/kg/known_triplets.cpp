#include "src/kg/known_triplets.hpp"

#include <limits>

#include "src/common/error.hpp"

namespace sptx::kg {

KnownTriplets::KnownTriplets(std::int64_t num_entities,
                             std::int64_t num_relations, std::size_t expected)
    : num_entities_(num_entities), num_relations_(num_relations) {
  SPTX_CHECK(num_entities >= 0 && num_relations >= 0,
             "negative vocabulary: " << num_entities << " entities, "
                                     << num_relations << " relations");
  // Keys range over [0, N·R·N); every one must fit the 64-bit key.
  const auto n = static_cast<std::uint64_t>(num_entities);
  const auto r = static_cast<std::uint64_t>(num_relations);
  SPTX_CHECK(n == 0 || r <= std::numeric_limits<std::uint64_t>::max() / n / n,
             "known-triplet keys overflow 64 bits at "
                 << num_entities << " entities x " << num_relations
                 << " relations");
  keys_.reserve(expected * 2);
}

void KnownTriplets::add(std::span<const Triplet> triplets) {
  for (const Triplet& t : triplets)
    if (in_vocabulary(t)) keys_.insert(key(t));
}

}  // namespace sptx::kg
