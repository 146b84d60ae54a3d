// Triplet and triplet-store types.
//
// A knowledge graph edge (h, r, t): head and tail are entity indices,
// relation a relation index. TripletStore owns the training split plus the
// entity/relation counts every downstream component (incidence builders,
// samplers, evaluators) needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.hpp"

namespace sptx {

struct Triplet {
  std::int64_t head = 0;
  std::int64_t relation = 0;
  std::int64_t tail = 0;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Owning container for a dataset split with its vocabulary sizes.
class TripletStore {
 public:
  TripletStore() = default;
  TripletStore(std::int64_t num_entities, std::int64_t num_relations,
               std::vector<Triplet> triplets)
      : num_entities_(num_entities),
        num_relations_(num_relations),
        triplets_(std::move(triplets)) {
    validate();
  }

  std::int64_t num_entities() const { return num_entities_; }
  std::int64_t num_relations() const { return num_relations_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(triplets_.size());
  }
  bool empty() const { return triplets_.empty(); }

  std::span<const Triplet> triplets() const { return triplets_; }
  const Triplet& operator[](std::int64_t i) const {
    return triplets_[static_cast<std::size_t>(i)];
  }

  /// Append `t`; an out-of-range triplet throws and leaves the store as it
  /// was.
  void add(Triplet t) {
    check(t);
    triplets_.push_back(t);
  }

  /// Contiguous sub-span [begin, begin+count) for minibatching.
  std::span<const Triplet> slice(std::int64_t begin, std::int64_t count) const {
    SPTX_CHECK(begin >= 0 && begin + count <= size(), "slice out of range");
    return std::span<const Triplet>(triplets_).subspan(
        static_cast<std::size_t>(begin), static_cast<std::size_t>(count));
  }

 private:
  void check(const Triplet& t) const {
    SPTX_CHECK(t.head >= 0 && t.head < num_entities_ && t.tail >= 0 &&
                   t.tail < num_entities_ && t.relation >= 0 &&
                   t.relation < num_relations_,
               "triplet out of range: h=" << t.head << " r=" << t.relation
                                          << " t=" << t.tail);
  }

  void validate() const {
    for (const Triplet& t : triplets_) check(t);
  }

  std::int64_t num_entities_ = 0;
  std::int64_t num_relations_ = 0;
  std::vector<Triplet> triplets_;
};

}  // namespace sptx
