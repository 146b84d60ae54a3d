// Tests for the sharded streaming DDP trainer: bit-identical results for
// any worker count and for streaming vs in-memory sources, zero incidence
// rebuilds after epoch 0 per worker, sparse all-reduce correctness across
// all 11 sparse model families, and the O(batch) memory contract when
// training an mmap'd file that must never be materialised in RAM.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "src/distributed/ddp.hpp"
#include "src/kg/streaming_store.hpp"
#include "src/kg/synthetic.hpp"
#include "src/profiling/counters.hpp"
#include "src/train/trainer.hpp"

namespace sptx {
namespace {

const char* const kAllModels[] = {"TransE",   "TransR",  "TransH", "TorusE",
                                  "TransD",   "TransA",  "TransC", "TransM",
                                  "DistMult", "ComplEx", "RotatE"};

/// Per-process scratch directory. ctest runs this binary twice (the _pool4
/// lane), possibly at once under -j; shared file names in TempDir() would
/// let one process truncate a file the other has mmap'd (SIGBUS).
const std::string& scratch_dir() {
  static const std::string dir = [] {
    std::string d = ::testing::TempDir() + "/sptx_ddp_streaming_" +
                    std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// Removes scratch_dir() once every test has run.
class ScratchDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir(), ec);
  }
};
::testing::Environment* const kScratchDirCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchDirCleanup);

std::string temp_path(const std::string& name) {
  return scratch_dir() + "/" + name;
}

kg::Dataset small_dataset() {
  Rng rng(71);
  return kg::generate({"ddp_stream", 80, 6, 400}, rng, 0.0, 0.0);
}

models::ModelConfig cfg8() {
  models::ModelConfig cfg;
  cfg.dim = 8;
  cfg.rel_dim = 8;
  return cfg;
}

distributed::DdpConfig base_config() {
  distributed::DdpConfig dc;
  dc.epochs = 3;
  dc.batch_size = 128;
  dc.shard_size = 32;  // fixed decomposition → worker-count invariance
  dc.lr = 0.01f;
  dc.seed = 5;
  return dc;
}

std::function<std::unique_ptr<models::KgeModel>(Rng&)> sparse_factory(
    const std::string& name, const kg::Dataset& ds) {
  return [name, n = ds.num_entities(), r = ds.num_relations()](Rng& rng) {
    return models::make_sparse_model(name, n, r, cfg8(), rng);
  };
}

/// Probe scores from the trained replica — detects any weight divergence
/// the loss curve could miss.
std::vector<float> probe_scores(const distributed::DdpResult& result,
                                const kg::Dataset& ds) {
  return result.model->score(ds.train.slice(0, 16));
}

TEST(DdpStreaming, ShardedStreamingBitIdenticalToSingleWorkerMemory) {
  const kg::Dataset ds = small_dataset();
  const std::string path = temp_path("ddp_all_models.sptxs");
  kg::StreamingTripletStore::write_file(path, ds.train.triplets(),
                                        ds.num_entities(),
                                        ds.num_relations());
  const auto store = kg::StreamingTripletStore::open(path);

  for (const char* name : kAllModels) {
    const auto make = sparse_factory(name, ds);
    auto ref_cfg = base_config();
    ref_cfg.workers = 1;
    const auto ref = distributed::train_ddp(make, ds.train, ref_cfg);

    auto got_cfg = base_config();
    got_cfg.workers = 3;
    const auto got = distributed::train_ddp(make, store, got_cfg);

    ASSERT_EQ(ref.epoch_loss.size(), got.epoch_loss.size()) << name;
    for (std::size_t i = 0; i < ref.epoch_loss.size(); ++i)
      EXPECT_FLOAT_EQ(ref.epoch_loss[i], got.epoch_loss[i])
          << name << " epoch " << i;
    const auto ref_scores = probe_scores(ref, ds);
    const auto got_scores = probe_scores(got, ds);
    ASSERT_EQ(ref_scores.size(), got_scores.size()) << name;
    for (std::size_t i = 0; i < ref_scores.size(); ++i)
      EXPECT_FLOAT_EQ(ref_scores[i], got_scores[i]) << name << " probe " << i;
  }
  std::remove(path.c_str());
}

TEST(DdpStreaming, UnevenShardsWeightedBitIdenticalAcrossWorkerCounts) {
  // 300 triplets, batch 128, shard 48: batches of 128, 128, 44 with shard
  // runs 48+48+32 / 48+48+32 / 44 — nothing divides evenly anywhere, so
  // uniform (1/p) weighting would over-count every short shard. Correct
  // weighting makes the loss and the model identical for any worker count.
  Rng rng(13);
  const kg::Dataset ds = kg::generate({"uneven", 50, 3, 300}, rng, 0.0, 0.0);
  auto run = [&](int workers) {
    auto dc = base_config();
    dc.workers = workers;
    dc.shard_size = 48;
    dc.batch_size = 128;
    return distributed::train_ddp(sparse_factory("TransE", ds), ds.train, dc);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto four = run(4);
  ASSERT_EQ(one.epoch_loss.size(), two.epoch_loss.size());
  for (std::size_t i = 0; i < one.epoch_loss.size(); ++i) {
    EXPECT_FLOAT_EQ(one.epoch_loss[i], two.epoch_loss[i]) << "epoch " << i;
    EXPECT_FLOAT_EQ(one.epoch_loss[i], four.epoch_loss[i]) << "epoch " << i;
  }
  const auto s1 = probe_scores(one, ds);
  const auto s4 = probe_scores(four, ds);
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_FLOAT_EQ(s1[i], s4[i]);
}

TEST(DdpStreaming, MatchesSequentialTrainerPerFamily) {
  // Anchor against the plain single-model trainer for EVERY family: a
  // full-batch shard (shard_size == batch_size, 1 worker) runs the same
  // plan pipeline and the same SGD arithmetic, so the loss trajectories
  // must agree closely (update vectorisation differs per parameter shape,
  // hence NEAR). Because train::train never harvests, this is the test
  // that would expose a sparse all-reduce dropping gradient — the
  // harvest-based runs can't check themselves against each other.
  const kg::Dataset ds = small_dataset();
  for (const char* name : kAllModels) {
    auto dc = base_config();
    dc.workers = 1;
    dc.shard_size = dc.batch_size;
    const auto ddp =
        distributed::train_ddp(sparse_factory(name, ds), ds.train, dc);

    Rng rng(dc.seed);
    auto model = models::make_sparse_model(name, ds.num_entities(),
                                           ds.num_relations(), cfg8(), rng);
    train::TrainConfig tc;
    tc.epochs = dc.epochs;
    tc.batch_size = dc.batch_size;
    tc.lr = dc.lr;
    tc.seed = dc.seed + 1;  // train_ddp draws negatives from seed+1
    const auto seq = train::train(*model, ds.train, tc);

    ASSERT_EQ(ddp.epoch_loss.size(), seq.epoch_loss.size()) << name;
    for (std::size_t i = 0; i < ddp.epoch_loss.size(); ++i)
      EXPECT_NEAR(ddp.epoch_loss[i], seq.epoch_loss[i], 2e-4f)
          << name << " epoch " << i;
  }
}

TEST(DdpStreaming, ZeroIncidenceRebuildsAfterEpochZeroPerWorker) {
  const kg::Dataset ds = small_dataset();
  auto dc = base_config();
  dc.workers = 2;
  dc.epochs = 4;
  std::int64_t builds_after_epoch0 = -1;
  dc.on_epoch = [&](int epoch, float) {
    if (epoch == 0)
      builds_after_epoch0 =
          profiling::counter_value(profiling::Counter::kIncidenceBuilds);
  };
  const auto result =
      distributed::train_ddp(sparse_factory("TransE", ds), ds.train, dc);

  ASSERT_GE(builds_after_epoch0, 0);
  EXPECT_EQ(profiling::counter_value(profiling::Counter::kIncidenceBuilds),
            builds_after_epoch0)
      << "epochs past the first must be served entirely from cached plans";

  // Per-worker caches: every worker misses exactly once per owned shard
  // side in epoch 0, then hits for the remaining epochs.
  ASSERT_EQ(result.worker_plan_stats.size(), 2u);
  std::int64_t total_misses = 0;
  for (const auto& stats : result.worker_plan_stats) {
    EXPECT_GT(stats.hits, 0);
    total_misses += stats.misses;
  }
  const index_t shards_per_epoch =
      result.shards_executed / dc.epochs;  // epoch-invariant schedule
  EXPECT_EQ(total_misses, 2 * shards_per_epoch);  // pos + neg side, epoch 0
  EXPECT_EQ(result.plan_stats.hits, 2 * shards_per_epoch * (dc.epochs - 1));
}

TEST(DdpStreaming, SparseAllReduceMovesOnlyTouchedRows) {
  const kg::Dataset ds = small_dataset();
  auto dc = base_config();
  dc.workers = 2;
  dc.epochs = 1;
  const auto result =
      distributed::train_ddp(sparse_factory("TransE", ds), ds.train, dc);
  EXPECT_GT(result.shards_executed, 0);
  EXPECT_GT(result.allreduce_rows, 0);
  // TransE touches ≤ 4 entity rows + 1 relation row per triplet across both
  // parameter tables; the sparse path must stay within that incidence bound
  // instead of shipping the full (N + R)-row tables per shard.
  const std::int64_t per_triplet_bound = 5;
  EXPECT_LE(result.allreduce_rows,
            per_triplet_bound * ds.train.size() * dc.epochs);
  EXPECT_EQ(result.dense_reduces, 0)
      << "TransE's tables are entity/relation-indexed; nothing should fall "
         "back to the dense path";
}

TEST(DdpStreaming, DenseBaselineFallsBackToSpanPath) {
  // Non-ScoringCore models (TorchKGE-style dense baselines) train through
  // the span fallback; worker-count invariance must hold there too.
  const kg::Dataset ds = small_dataset();
  auto make = [&](Rng& rng) {
    return models::make_dense_model("TransE", ds.num_entities(),
                                    ds.num_relations(), cfg8(), rng);
  };
  auto run = [&](int workers) {
    auto dc = base_config();
    dc.workers = workers;
    dc.epochs = 2;
    return distributed::train_ddp(make, ds.train, dc);
  };
  const auto one = run(1);
  const auto three = run(3);
  ASSERT_EQ(one.epoch_loss.size(), three.epoch_loss.size());
  for (std::size_t i = 0; i < one.epoch_loss.size(); ++i)
    EXPECT_FLOAT_EQ(one.epoch_loss[i], three.epoch_loss[i]);
}

TEST(DdpStreaming, LossDecreasesOnStream) {
  const kg::Dataset ds = small_dataset();
  const std::string path = temp_path("ddp_converge.sptxs");
  kg::StreamingTripletStore::write_file(path, ds.train.triplets(),
                                        ds.num_entities(),
                                        ds.num_relations());
  const auto store = kg::StreamingTripletStore::open(path);
  auto dc = base_config();
  dc.workers = 2;
  dc.epochs = 6;
  dc.lr = 0.05f;
  const auto result =
      distributed::train_ddp(sparse_factory("TransE", ds), store, dc);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front());
  std::remove(path.c_str());
}

// The heap-budget test reads glibc's mallinfo2, which sanitizer allocators
// bypass — meaningful only on plain builds.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPTX_UNDER_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define SPTX_UNDER_ASAN 1
#endif

#if !defined(SPTX_UNDER_ASAN) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))

std::size_t heap_bytes_now() {
  const struct mallinfo2 mi = ::mallinfo2();
  return mi.uordblks + mi.hblkhd;  // arena allocations + mmap'd blocks
}

TEST(DdpStreaming, NeverMaterializesTheFileInRam) {
  // Train a file several times larger than the allowed heap budget. With
  // zero-copy slices over the mapping, per-batch negative sampling and the
  // plan cache off, live heap must stay O(batch + model), not O(file). A
  // regression that copies the triplets (to_memory, pregenerate-over-all,
  // staged batches) holds an O(file) buffer across the epoch and blows the
  // budget. Worker count 1 keeps every allocation in the main arena, which
  // is the one mallinfo2 reports.
  const std::string path = temp_path("ddp_big.sptxs");
  const std::int64_t m = 600000;  // 14.4 MB of triplets on disk
  {
    Rng rng(3);
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      triplets.push_back({static_cast<std::int64_t>(rng.next_below(2000)),
                          static_cast<std::int64_t>(rng.next_below(8)),
                          static_cast<std::int64_t>(rng.next_below(2000))});
    }
    kg::StreamingTripletStore::write_file(path, triplets, 2000, 8);
  }  // the staging vector dies before the baseline sample

  const auto store = kg::StreamingTripletStore::open(path);
  const std::size_t file_bytes =
      static_cast<std::size_t>(m) * sizeof(Triplet);
  const std::size_t budget = file_bytes / 3;

  distributed::DdpConfig dc;
  dc.workers = 1;
  dc.epochs = 2;
  dc.batch_size = 8192;
  dc.shard_size = 4096;
  dc.plan_cache = false;  // cached plans are deliberately O(dataset)
  dc.seed = 9;
  const std::size_t baseline = heap_bytes_now();
  std::size_t peak_epoch_heap = 0;
  dc.on_epoch = [&](int, float) {
    peak_epoch_heap = std::max(peak_epoch_heap, heap_bytes_now());
  };
  auto make = [&](Rng& rng) {
    models::ModelConfig cfg;
    cfg.dim = 8;
    return models::make_sparse_model("TransE", 2000, 8, cfg, rng);
  };
  const auto result = distributed::train_ddp(make, store, dc);
  EXPECT_EQ(result.epoch_loss.size(), 2u);
  ASSERT_GT(peak_epoch_heap, 0u);
  EXPECT_LT(peak_epoch_heap - baseline, budget)
      << "heap grew by " << (peak_epoch_heap - baseline) << " bytes against a "
      << budget << "-byte budget for a " << file_bytes << "-byte file";
  std::remove(path.c_str());
}

#endif  // glibc ≥ 2.33 (mallinfo2), not under ASan

}  // namespace
}  // namespace sptx
