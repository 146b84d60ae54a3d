// Tests for dataset loading, persistence, splitting, and synthesis.
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include <cstdio>
#include <fstream>

#include "src/kg/dataset.hpp"
#include "src/kg/synthetic.hpp"

namespace sptx {
namespace {

TEST(TripletStore, ValidatesRanges) {
  EXPECT_THROW(TripletStore(2, 1, {{0, 0, 5}}), Error);
  EXPECT_THROW(TripletStore(2, 1, {{0, 3, 1}}), Error);
  TripletStore ok(2, 1, {{0, 0, 1}});
  EXPECT_EQ(ok.size(), 1);
}

TEST(TripletStore, RejectedAddLeavesStoreUnchanged) {
  TripletStore store(3, 2, {{0, 0, 1}});
  EXPECT_THROW(store.add({0, 0, 3}), Error);
  EXPECT_THROW(store.add({-1, 1, 2}), Error);
  EXPECT_THROW(store.add({1, 2, 2}), Error);
  EXPECT_EQ(store.size(), 1);
  store.add({2, 1, 0});
  ASSERT_EQ(store.size(), 2);
  EXPECT_EQ(store[1].head, 2);
}

TEST(TripletStore, SliceBounds) {
  TripletStore store(4, 2, {{0, 0, 1}, {1, 1, 2}, {2, 0, 3}});
  auto s = store.slice(1, 2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].head, 1);
  EXPECT_THROW(store.slice(2, 5), Error);
}

TEST(Loader, ParsesTsvWithInterning) {
  const std::string path = ::testing::TempDir() + "/kg.tsv";
  {
    std::ofstream os(path);
    os << "# comment line\n";
    os << "alice\tknows\tbob\n";
    os << "bob\tknows\tcarol\n";
    os << "alice\tlikes\tcarol\n";
    os << "\n";  // blank line skipped
  }
  const kg::Dataset ds = kg::load_tsv(path, "toy");
  EXPECT_EQ(ds.num_entities(), 3);
  EXPECT_EQ(ds.num_relations(), 2);
  EXPECT_EQ(ds.train.size(), 3);
  // First-seen order: alice=0, bob=1, carol=2; knows=0, likes=1.
  EXPECT_EQ(ds.train[0].head, 0);
  EXPECT_EQ(ds.train[0].tail, 1);
  EXPECT_EQ(ds.train[2].relation, 1);
  EXPECT_EQ(ds.entity_names[2], "carol");
  std::remove(path.c_str());
}

TEST(Loader, ParsesCsv) {
  const std::string path = ::testing::TempDir() + "/kg.csv";
  {
    std::ofstream os(path);
    os << "a,r1,b\nb,r1,a\n";
  }
  const kg::Dataset ds = kg::load_csv(path);
  EXPECT_EQ(ds.num_entities(), 2);
  EXPECT_EQ(ds.train.size(), 2);
  std::remove(path.c_str());
}

TEST(Loader, MalformedLineThrows) {
  const std::string path = ::testing::TempDir() + "/bad.tsv";
  {
    std::ofstream os(path);
    os << "only_two\tfields\n";
  }
  EXPECT_THROW(kg::load_tsv(path), Error);
  std::remove(path.c_str());
}

TEST(Loader, TsvRoundTripPreservesStructure) {
  Rng rng(5);
  const kg::Dataset ds =
      kg::generate({"rt", 50, 4, 200}, rng, 0.0, 0.0);
  const std::string path = ::testing::TempDir() + "/roundtrip.tsv";
  kg::write_tsv(ds, path);
  const kg::Dataset back = kg::load_tsv(path);
  EXPECT_EQ(back.train.size(), ds.train.size());
  // Entity count can only shrink (isolated entities don't appear in TSV).
  EXPECT_LE(back.num_entities(), ds.num_entities());
  std::remove(path.c_str());
}

TEST(BinaryFormat, SaveLoadRoundTrip) {
  Rng rng(6);
  kg::Dataset ds = kg::generate({"bin", 40, 3, 150}, rng, 0.1, 0.1);
  ds.entity_names = {"only", "some", "names"};
  const std::string path = ::testing::TempDir() + "/ds.sptx";
  ds.save(path);
  const kg::Dataset back = kg::Dataset::load_binary(path);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.num_entities(), ds.num_entities());
  EXPECT_EQ(back.train.size(), ds.train.size());
  EXPECT_EQ(back.valid.size(), ds.valid.size());
  EXPECT_EQ(back.test.size(), ds.test.size());
  for (std::int64_t i = 0; i < ds.train.size(); ++i)
    EXPECT_EQ(back.train[i], ds.train[i]);
  EXPECT_EQ(back.entity_names, ds.entity_names);
  std::remove(path.c_str());
}

TEST(BinaryFormat, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a dataset";
  }
  EXPECT_THROW(kg::Dataset::load_binary(path), Error);
  std::remove(path.c_str());
}

TEST(Split, FractionsRespected) {
  Rng rng(7);
  kg::Dataset all = kg::generate({"sp", 30, 3, 1000}, rng, 0.0, 0.0);
  const kg::Dataset ds = kg::split(std::move(all), 0.1, 0.2, rng);
  EXPECT_NEAR(static_cast<double>(ds.valid.size()), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(ds.test.size()), 200.0, 2.0);
  EXPECT_EQ(ds.train.size() + ds.valid.size() + ds.test.size(), 1000);
}

TEST(Split, BadFractionsThrow) {
  Rng rng(8);
  kg::Dataset all = kg::generate({"sp2", 30, 3, 100}, rng, 0.0, 0.0);
  EXPECT_THROW(kg::split(std::move(all), 0.6, 0.5, rng), Error);
}

TEST(Profiles, Table3ValuesPresent) {
  const auto& profiles = kg::paper_profiles();
  EXPECT_GE(profiles.size(), 8u);
  const auto fb15k = kg::profile_by_name("FB15K");
  EXPECT_EQ(fb15k.entities, 14951);
  EXPECT_EQ(fb15k.relations, 1345);
  EXPECT_EQ(fb15k.triplets, 483142);
  const auto biokg = kg::profile_by_name("BIOKG");
  EXPECT_EQ(biokg.triplets, 4762678);
  EXPECT_THROW(kg::profile_by_name("NOPE"), Error);
}

TEST(Profiles, ScalingFloorsAndScales) {
  const auto half = kg::scaled(kg::profile_by_name("WN18"), 0.5);
  EXPECT_NEAR(static_cast<double>(half.entities), 40943 * 0.5, 1.0);
  const auto tiny = kg::scaled(kg::profile_by_name("WN18"), 1e-9);
  EXPECT_GE(tiny.entities, 64);
  EXPECT_GE(tiny.relations, 4);
  EXPECT_GE(tiny.triplets, 256);
  EXPECT_THROW(kg::scaled(kg::profile_by_name("WN18"), 0.0), Error);
}

class SyntheticTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SyntheticTest, GeneratedGraphMatchesProfile) {
  Rng rng(9);
  const auto profile = kg::scaled(kg::profile_by_name(GetParam()), 0.002);
  const kg::Dataset ds = kg::generate(profile, rng);
  EXPECT_EQ(ds.num_entities(), profile.entities);
  EXPECT_EQ(ds.num_relations(), profile.relations);
  EXPECT_EQ(ds.train.size() + ds.valid.size() + ds.test.size(),
            profile.triplets);
  // All triplets in range (TripletStore validated on construction) and the
  // relation distribution covers multiple relations.
  std::vector<bool> seen(static_cast<std::size_t>(profile.relations));
  for (const Triplet& t : ds.train.triplets())
    seen[static_cast<std::size_t>(t.relation)] = true;
  int covered = 0;
  for (bool b : seen) covered += b ? 1 : 0;
  EXPECT_GT(covered, static_cast<int>(profile.relations / 2));
}

INSTANTIATE_TEST_SUITE_P(Profiles, SyntheticTest,
                         ::testing::Values("FB15K", "WN18", "FB13",
                                           "YAGO3-10", "BIOKG", "COVID19"));

TEST(Synthetic, DeterministicGivenSeed) {
  Rng rng1(42), rng2(42);
  const auto profile = kg::DatasetProfile{"det", 100, 5, 500};
  const kg::Dataset a = kg::generate(profile, rng1);
  const kg::Dataset b = kg::generate(profile, rng2);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::int64_t i = 0; i < a.train.size(); ++i)
    EXPECT_EQ(a.train[i], b.train[i]);
}

TEST(Synthetic, PlantedStructureIsSkewed) {
  // The degree distribution must be heavy-tailed: the busiest entity sees
  // far more than the mean number of edges.
  Rng rng(10);
  const kg::Dataset ds = kg::generate({"skew", 200, 4, 4000}, rng, 0.0, 0.0);
  std::vector<int> degree(200, 0);
  for (const Triplet& t : ds.train.triplets()) {
    degree[static_cast<std::size_t>(t.head)]++;
    degree[static_cast<std::size_t>(t.tail)]++;
  }
  const int max_deg = *std::max_element(degree.begin(), degree.end());
  const double mean_deg = 2.0 * 4000 / 200;
  EXPECT_GT(max_deg, 2 * mean_deg);
}

}  // namespace
}  // namespace sptx
