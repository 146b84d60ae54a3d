// Tests for the negative sampler (§5.3 pre-generation protocol).
#include <gtest/gtest.h>

#include "src/kg/negative_sampler.hpp"
#include "src/kg/synthetic.hpp"

namespace sptx {
namespace {

TripletStore toy_store() {
  return TripletStore(6, 2,
                      {{0, 0, 1}, {1, 0, 2}, {2, 1, 3}, {3, 1, 4}, {4, 0, 5}});
}

TEST(NegativeSampler, CorruptionChangesExactlyOneSlot) {
  const TripletStore store = toy_store();
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Triplet& pos = store[i % store.size()];
    const Triplet neg = sampler.corrupt(pos, rng);
    const bool head_changed = neg.head != pos.head;
    const bool tail_changed = neg.tail != pos.tail;
    EXPECT_EQ(neg.relation, pos.relation);
    EXPECT_TRUE(head_changed != tail_changed)
        << "exactly one of head/tail must change";
  }
}

TEST(NegativeSampler, NeverReturnsThePositive) {
  const TripletStore store = toy_store();
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const Triplet& pos = store[i % store.size()];
    EXPECT_FALSE(sampler.corrupt(pos, rng) == pos);
  }
}

TEST(NegativeSampler, FilteredAvoidsKnownPositives) {
  // Dense positive set: (0, 0, t) for every tail but one. A filtered
  // sampler corrupting tails must find the single non-positive.
  std::vector<Triplet> positives;
  for (std::int64_t t = 1; t < 6; ++t) positives.push_back({0, 0, t});
  TripletStore store(7, 1, std::move(positives));
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform,
                              /*filtered=*/true);
  Rng rng(3);
  int false_negatives = 0;
  for (int i = 0; i < 300; ++i) {
    const Triplet neg = sampler.corrupt(store[0], rng);
    for (std::int64_t t = 1; t < 6; ++t) {
      if (neg == Triplet{0, 0, t}) ++false_negatives;
    }
  }
  // Bounded retries make this probabilistic but heavily suppressed.
  EXPECT_LT(false_negatives, 5);
}

TEST(NegativeSampler, PregenerateAlignsWithPositives) {
  const TripletStore store = toy_store();
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform);
  Rng rng(4);
  const auto negatives = sampler.pregenerate(store.triplets(), rng);
  ASSERT_EQ(negatives.size(), static_cast<std::size_t>(store.size()));
  for (std::size_t i = 0; i < negatives.size(); ++i) {
    EXPECT_EQ(negatives[i].relation, store[static_cast<std::int64_t>(i)]
                                         .relation);
  }
}

TEST(NegativeSampler, BernoulliPrefersHeadForOneToMany) {
  // Relation 0 is 1-to-N (head 0 points to many tails): tph >> hpt, so the
  // Bernoulli scheme should corrupt the HEAD most of the time (reduces
  // false negatives on the tail side).
  std::vector<Triplet> positives;
  for (std::int64_t t = 1; t <= 20; ++t) positives.push_back({0, 0, t});
  TripletStore store(40, 1, std::move(positives));
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kBernoulli);
  Rng rng(5);
  int head_corruptions = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    const Triplet neg = sampler.corrupt(store[0], rng);
    if (neg.head != 0) ++head_corruptions;
  }
  EXPECT_GT(head_corruptions, trials * 3 / 4);
}

TEST(NegativeSampler, BernoulliPrefersTailForManyToOne) {
  std::vector<Triplet> positives;
  for (std::int64_t h = 1; h <= 20; ++h) positives.push_back({h, 0, 0});
  TripletStore store(40, 1, std::move(positives));
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kBernoulli);
  Rng rng(6);
  int tail_corruptions = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    const Triplet neg = sampler.corrupt(store[0], rng);
    if (neg.tail != 0) ++tail_corruptions;
  }
  EXPECT_GT(tail_corruptions, trials * 3 / 4);
}

TEST(NegativeSampler, DeterministicGivenSeed) {
  const TripletStore store = toy_store();
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform);
  Rng rng1(7), rng2(7);
  const auto a = sampler.pregenerate(store.triplets(), rng1);
  const auto b = sampler.pregenerate(store.triplets(), rng2);
  EXPECT_EQ(a, b);
}

TEST(NegativeSampler, FilteredKeysExactBeyond21Bits) {
  // Regression: the filtered sampler used to pack (h, r, t) into one 64-bit
  // word with 21-bit shifts and XOR, so ids ≥ 2^21 aliased — e.g. the key of
  // (h, 1, 0) equalled the key of (h, 0, 2^21), making the sampler reject
  // valid negatives and admit false ones at scale. Keys are now the full
  // triplet, so membership must be exact for ids of any magnitude.
  const std::int64_t big = std::int64_t{1} << 21;
  std::vector<Triplet> positives = {{5, 1, 0}, {big + 7, 2, big + 9}};
  TripletStore store(big + 16, 4, std::move(positives));
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform,
                              /*filtered=*/true);
  EXPECT_TRUE(sampler.is_positive({5, 1, 0}));
  EXPECT_TRUE(sampler.is_positive({big + 7, 2, big + 9}));
  // Old packed-key collision partners must NOT read as positives.
  EXPECT_FALSE(sampler.is_positive({5, 0, big}));      // r bit ↔ t bit alias
  EXPECT_FALSE(sampler.is_positive({5, 1, big}));
  EXPECT_FALSE(sampler.is_positive({big + 7, 2, 9}));  // high bits dropped
  EXPECT_FALSE(sampler.is_positive({7, 2, big + 9}));
}

TEST(NegativeSampler, FilteredCorruptionAtLargeIdScale) {
  // Dense positive block living entirely above 2^21: filtered corruption
  // must still avoid regenerating any of them.
  const std::int64_t base = (std::int64_t{1} << 21) + 100;
  std::vector<Triplet> positives;
  for (std::int64_t t = 0; t < 5; ++t)
    positives.push_back({base, 0, base + 1 + t});
  TripletStore store(base + 10, 1, std::move(positives));
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform,
                              /*filtered=*/true);
  Rng rng(17);
  int false_negatives = 0;
  for (int i = 0; i < 300; ++i) {
    const Triplet neg = sampler.corrupt(store[0], rng);
    if (sampler.is_positive(neg)) ++false_negatives;
  }
  EXPECT_LT(false_negatives, 5);  // bounded retries keep this tiny
}

TEST(NegativeSampler, StoreFreeUniformMatchesStoreBacked) {
  const TripletStore store = toy_store();
  kg::NegativeSampler with_store(store, kg::CorruptionScheme::kUniform);
  kg::NegativeSampler store_free(store.num_entities(), store.num_relations(),
                                 kg::CorruptionScheme::kUniform);
  Rng rng1(21), rng2(21);
  EXPECT_EQ(with_store.pregenerate(store.triplets(), rng1),
            store_free.pregenerate(store.triplets(), rng2));
}

TEST(NegativeSampler, StoreFreeRejectsBernoulli) {
  EXPECT_THROW(
      kg::NegativeSampler(10, 2, kg::CorruptionScheme::kBernoulli), Error);
}

TEST(NegativeSampler, TooFewEntitiesThrows) {
  TripletStore store(1, 1, {{0, 0, 0}});
  EXPECT_THROW(
      kg::NegativeSampler(store, kg::CorruptionScheme::kUniform), Error);
}

TEST(NegativeSampler, FilteredThrowsWhenTheKnownTripletKeyOverflows) {
  // The filter keys a triplet as h·(R·N) + r·N + t in 64 bits: N = 2^31
  // entities leave room for three relations (N·R·N = 3·2^62), not four.
  // Unfiltered sampling never builds the key, so it accepts both.
  const std::int64_t n = std::int64_t{1} << 31;
  const TripletStore fits(n, 3, {{0, 2, 1}});
  EXPECT_NO_THROW(
      kg::NegativeSampler(fits, kg::CorruptionScheme::kUniform, true));
  const TripletStore overflows(n, 4, {{0, 3, 1}});
  EXPECT_THROW(
      kg::NegativeSampler(overflows, kg::CorruptionScheme::kUniform, true),
      Error);
  EXPECT_NO_THROW(
      kg::NegativeSampler(overflows, kg::CorruptionScheme::kUniform));
}

TEST(NegativeSampler, UniformCorruptsBothSidesRoughlyEqually) {
  const TripletStore store = toy_store();
  kg::NegativeSampler sampler(store, kg::CorruptionScheme::kUniform);
  Rng rng(8);
  int heads = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const Triplet neg = sampler.corrupt(store[0], rng);
    if (neg.head != store[0].head) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.06);
}

}  // namespace
}  // namespace sptx
