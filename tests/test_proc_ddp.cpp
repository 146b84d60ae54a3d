// Multi-process elastic DDP, end to end: procs mode must produce
// bit-identical checkpoints to the threaded executor for any worker count
// and any model family — including runs where worker processes are
// SIGKILLed mid-epoch and respawned, stall their heartbeats, or drop
// transport frames — and the supervisor must never hang, leak children, or
// leave sockets behind on the abort paths. Workers here run in fork-only
// mode (DdpConfig::worker_exec empty): real child processes with their own
// address spaces, minus the exec (the CLI covers fork+exec).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/distributed/ddp.hpp"
#include "src/distributed/proc_ddp.hpp"
#include "src/kg/synthetic.hpp"
#include "src/models/checkpoint.hpp"
#include "src/models/model.hpp"
#include "src/models/snapshot.hpp"

namespace sptx {
namespace {

models::ModelConfig cfg8() {
  models::ModelConfig cfg;
  cfg.dim = 8;
  cfg.rel_dim = 4;
  return cfg;
}

kg::Dataset proc_dataset() {
  Rng rng(5);
  return kg::generate({"procddp", 40, 3, 400}, rng, 0.05, 0.1);
}

/// A path under the test temp dir unique to this process: the suite also
/// runs as test_proc_ddp_pool4, possibly at the same time.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" + std::to_string(::getpid());
}

std::string ckpt_bytes(models::KgeModel& model) {
  static std::atomic<int> counter{0};
  const std::string path = ::testing::TempDir() + "/pddp_probe_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter.fetch_add(1));
  models::save_checkpoint(model, path);
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

/// Losses are compared as bit patterns: both executors sum the same shard
/// losses in the same order, so even a 1-ulp difference is a divergence.
std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

void remove_rotations(const std::string& base) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string stem = base_path.filename().string();
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == stem || name.starts_with(stem + "."))
      fs::remove(entry.path(), ec);
  }
}

/// No zombie children may survive a supervisor run: every spawn is reaped
/// on success AND on every abort path.
void expect_no_children() {
  int status = 0;
  errno = 0;
  const pid_t rc = ::waitpid(-1, &status, WNOHANG);
  EXPECT_TRUE(rc == -1 && errno == ECHILD)
      << "supervisor leaked a child process (waitpid returned " << rc << ")";
}

struct ProcFixture {
  kg::Dataset ds = proc_dataset();

  /// The threaded reference builds replicas via the factory (seeded from
  /// Rng(config.seed)); the procs supervisor builds from the spec with
  /// spec.seed overridden to config.seed — both sides start from the same
  /// make_sparse_model(family, n, r, cfg, Rng(config.seed)) parameters.
  std::function<std::unique_ptr<models::KgeModel>(Rng&)> factory(
      const std::string& family,
      const std::string& framework = "sparse") const {
    const index_t n = ds.num_entities(), r = ds.num_relations();
    return [family, framework, n, r](Rng& rng) {
      return framework == "dense"
                 ? models::make_dense_model(family, n, r, cfg8(), rng)
                 : models::make_sparse_model(family, n, r, cfg8(), rng);
    };
  }

  models::ModelSpec spec(const std::string& family,
                         const std::string& framework = "sparse") const {
    models::ModelSpec s;
    s.family = family;
    s.framework = framework;
    s.config = cfg8();
    return s;  // seed is overridden to config.seed by the supervisor
  }

  distributed::DdpConfig config(int workers) const {
    distributed::DdpConfig dc;
    dc.workers = workers;
    dc.epochs = 3;
    dc.batch_size = 128;
    dc.shard_size = 32;  // fixed decomposition: results worker-invariant
    dc.lr = 0.05f;
    dc.seed = 11;
    dc.mode = "procs";
    // worker_exec stays empty: fork-only child processes.
    return dc;
  }
};

// ---------------------------------------------------------------------------
// Bit-identity: procs == threads for every worker count × model family.
// ---------------------------------------------------------------------------

/// Train `family` with 3 threads, then with 1, 2 and 4 worker processes;
/// every procs run must reproduce the threads checkpoint and losses bit for
/// bit.
void expect_procs_match_threads(const std::string& family,
                                const std::string& framework,
                                index_t shard_size) {
  ProcFixture fx;
  auto threads_dc = fx.config(3);
  threads_dc.mode = "threads";
  threads_dc.shard_size = shard_size;
  const auto reference = distributed::train_ddp(
      fx.factory(family, framework), fx.ds.train, threads_dc);
  const std::string want = ckpt_bytes(*reference.model);

  for (int workers : {1, 2, 4}) {
    auto dc = fx.config(workers);
    dc.shard_size = shard_size;
    const auto procs = distributed::train_ddp_procs(
        fx.spec(family, framework), fx.ds.train, dc);
    EXPECT_EQ(ckpt_bytes(*procs.model), want)
        << family << " with " << workers << " worker processes diverged";
    ASSERT_EQ(procs.epoch_loss.size(), reference.epoch_loss.size());
    for (std::size_t i = 0; i < reference.epoch_loss.size(); ++i)
      EXPECT_EQ(bits(procs.epoch_loss[i]), bits(reference.epoch_loss[i]))
          << family << " workers=" << workers << " epoch " << i << ": "
          << procs.epoch_loss[i] << " vs " << reference.epoch_loss[i];
    EXPECT_EQ(procs.workers, workers);
    EXPECT_EQ(procs.workers_lost, 0);
    // The supervisor counts every shard frame a worker sent, so both
    // executors report the same count (the decomposition is fixed).
    EXPECT_GT(procs.shards_executed, 0);
    EXPECT_EQ(procs.shards_executed, reference.shards_executed)
        << family << " workers=" << workers;
  }
  expect_no_children();
}

class ProcDdpFamilyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProcDdpFamilyTest, BitIdenticalToThreadsForAnyWorkerCount) {
  expect_procs_match_threads(GetParam(), "sparse", 32);
}

INSTANTIATE_TEST_SUITE_P(Families, ProcDdpFamilyTest,
                         ::testing::Values("TransE", "TransR", "DistMult",
                                           "TransH", "TorusE", "TransD",
                                           "RotatE"));

// Dense baselines are not scoring-core models: every shard takes the span
// fallback (KgeModel::loss over the triplet spans) and every parameter the
// dense path of the harvest, the reduction and the step frame.
TEST(ProcDdp, DenseBaselineSpanFallbackBitIdenticalToThreads) {
  expect_procs_match_threads("TransE", "dense", 32);
}

// 128 = 2 × 48 + 32: the last shard of every batch is short, so the shard
// weights differ and each shard's plan-cache key must still line up.
TEST(ProcDdp, UnevenShardsBitIdenticalToThreads) {
  expect_procs_match_threads("TransE", "sparse", 48);
  expect_procs_match_threads("TransR", "sparse", 48);
}

// ---------------------------------------------------------------------------
// Elasticity drills.
// ---------------------------------------------------------------------------

TEST(ProcDdp, SigkillMidEpochRespawnsAndStaysBitIdentical) {
  ProcFixture fx;
  const auto clean = distributed::train_ddp_procs(fx.spec("TransE"),
                                                  fx.ds.train, fx.config(2));
  const std::string want = ckpt_bytes(*clean.model);

  // Worker 1 _Exit(137)s (no destructors — a true SIGKILL stand-in) before
  // its first owned shard of epoch 1. The supervisor re-runs its shards,
  // finishes the epoch, and respawns the rank from a synced checkpoint.
  auto dc = fx.config(2);
  dc.max_worker_retries = 4;
  fault::install("ddp_proc_kill:die@1:1");
  const auto recovered =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  fault::clear();

  EXPECT_GE(recovered.workers_lost, 1);
  EXPECT_GE(recovered.workers_respawned, 1);
  EXPECT_EQ(ckpt_bytes(*recovered.model), want);
  ASSERT_EQ(recovered.epoch_loss.size(), clean.epoch_loss.size());
  for (std::size_t i = 0; i < clean.epoch_loss.size(); ++i)
    EXPECT_EQ(bits(recovered.epoch_loss[i]), bits(clean.epoch_loss[i]))
        << "epoch " << i;
  expect_no_children();
}

TEST(ProcDdp, HeartbeatStallIsDetectedAndDegradeFinishes) {
  ProcFixture fx;
  // Enough work that the run comfortably outlives the liveness deadline
  // (stall detection needs wall-clock, not batches).
  Rng rng(9);
  fx.ds = kg::generate({"procddp_hb", 120, 4, 6000}, rng, 0.05, 0.1);
  // One shard per batch, owner rank 0 — rank 1 never sends a data frame,
  // so suppressed beacons are its only sign of life.
  auto dc = fx.config(2);
  dc.epochs = 40;
  dc.shard_size = dc.batch_size;
  dc.heartbeat_ms = 40;
  dc.policy = "degrade";
  dc.max_worker_retries = 0;

  auto ref_dc = dc;
  ref_dc.mode = "threads";
  const auto reference =
      distributed::train_ddp(fx.factory("TransE"), fx.ds.train, ref_dc);

  fault::install("heartbeat_stall:die@1");
  const auto stalled =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  fault::clear();

  EXPECT_GE(stalled.workers_lost, 1);
  EXPECT_EQ(ckpt_bytes(*stalled.model), ckpt_bytes(*reference.model));
  expect_no_children();
}

TEST(ProcDdp, TransportDropsRetryAndStayBitIdentical) {
  ProcFixture fx;
  const auto clean = distributed::train_ddp_procs(fx.spec("TransE"),
                                                  fx.ds.train, fx.config(2));
  const std::string want = ckpt_bytes(*clean.model);

  // ~10% of outgoing frames (both directions) fail on first attempt; the
  // send loop retries in place. eio decisions hash (seed, site, hit), so
  // this exact schedule replays.
  fault::install("transport_drop:eio@0.1", 7);
  const auto flaky =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train,
                                   fx.config(2));
  fault::clear();

  EXPECT_GE(flaky.transport_retries, 1);
  EXPECT_EQ(ckpt_bytes(*flaky.model), want);
  expect_no_children();
}

// ---------------------------------------------------------------------------
// Abort paths: strict flushes + throws, degrade survives, nothing leaks.
// ---------------------------------------------------------------------------

TEST(ProcDdp, StrictPolicyAbortsCleanlyWithValidFlushAndNoOrphans) {
  ProcFixture fx;
  auto dc = fx.config(2);
  dc.max_worker_retries = 0;
  dc.policy = "strict";
  dc.checkpoint_path = temp_path("pddp_abort");
  std::remove((dc.checkpoint_path + ".abort").c_str());

  fault::install("ddp_proc_kill:die@0:1");
  try {
    distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
    fault::clear();
    FAIL() << "respawn budget 0 under strict policy must abort";
  } catch (const Error& e) {
    fault::clear();
    EXPECT_EQ(e.code(), ErrorCode::kWorkerLost);
  }

  // The abort flushed consistent parameters; a fresh model loads them.
  Rng rng(1);
  auto model = fx.factory("TransE")(rng);
  EXPECT_NO_THROW(
      models::load_checkpoint(*model, dc.checkpoint_path + ".abort"));

  // Every child is reaped and the run directory (socket included) is gone.
  expect_no_children();
  int leftover = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path(), ec))
    if (entry.path().filename().string().starts_with("sptx-ddp-" +
                                                     std::to_string(getpid())))
      ++leftover;
  EXPECT_EQ(leftover, 0) << "abort leaked a supervisor run directory";

  // The stale flush must be invisible to rotation: never resumed from,
  // never pruned, and named in the resume-failure diagnostic.
  EXPECT_FALSE(models::latest_checkpoint(dc.checkpoint_path).has_value());
  auto dc_resume = fx.config(2);
  dc_resume.resume_from = dc.checkpoint_path;
  try {
    distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc_resume);
    FAIL() << "resume from a base with only an .abort sibling must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find(".abort"), std::string::npos)
        << "resume error does not mention the stale abort flush: "
        << e.what();
  }
  std::remove((dc.checkpoint_path + ".abort").c_str());
}

TEST(ProcDdp, DegradePolicyFinishesOnSurvivorsBitIdentically) {
  ProcFixture fx;
  const auto clean = distributed::train_ddp_procs(fx.spec("TransE"),
                                                  fx.ds.train, fx.config(2));

  auto dc = fx.config(2);
  dc.max_worker_retries = 0;
  dc.policy = "degrade";
  fault::install("ddp_proc_kill:die@0:1");
  const auto degraded =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  fault::clear();

  EXPECT_GE(degraded.workers_lost, 1);
  EXPECT_EQ(degraded.workers_respawned, 0);  // budget 0: no respawn
  EXPECT_EQ(ckpt_bytes(*degraded.model), ckpt_bytes(*clean.model));
  expect_no_children();
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoint/resume in procs mode.
// ---------------------------------------------------------------------------

TEST(ProcDdp, CheckpointResumeMatchesUninterrupted) {
  ProcFixture fx;
  auto dc = fx.config(2);
  dc.epochs = 4;
  const auto full =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  const std::string want = ckpt_bytes(*full.model);

  const std::string base = temp_path("pddp_resume");
  remove_rotations(base);
  auto dc_ckpt = dc;
  dc_ckpt.checkpoint_every = 2;
  dc_ckpt.checkpoint_path = base;
  const auto half =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc_ckpt);
  EXPECT_EQ(half.checkpoints_written, 1);  // ep2 (4 is the final state)
  EXPECT_EQ(ckpt_bytes(*half.model), want);

  auto dc_resume = dc;
  dc_resume.resume_from = base;
  const auto resumed =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train,
                                   dc_resume);
  EXPECT_EQ(resumed.start_epoch, 2);
  EXPECT_EQ(ckpt_bytes(*resumed.model), want);
  ASSERT_EQ(resumed.epoch_loss.size(), full.epoch_loss.size());
  for (std::size_t i = 0; i < full.epoch_loss.size(); ++i)
    EXPECT_EQ(bits(resumed.epoch_loss[i]), bits(full.epoch_loss[i]))
        << "epoch " << i;
  remove_rotations(base);
  expect_no_children();
}

// A worker told to shut down must exit at once, not when its heartbeat
// beacon next wakes: with a 30 s deadline the beacon sleeps 10 s, and the
// supervisor would wait out its 2 s shutdown grace and SIGKILL the worker.
TEST(ProcDdp, ShutdownDoesNotWaitForTheNextHeartbeat) {
  ProcFixture fx;
  auto dc = fx.config(2);
  dc.epochs = 1;
  dc.heartbeat_ms = 30'000;
  const auto t0 = std::chrono::steady_clock::now();
  const auto run =
      distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_EQ(run.workers_lost, 0);
  EXPECT_LT(seconds, 1.5) << "procs run waited on a sleeping heartbeat";
  expect_no_children();
}

// ---------------------------------------------------------------------------
// Health surface.
// ---------------------------------------------------------------------------

TEST(ProcDdp, HealthJsonReflectsTheLastRun) {
  ProcFixture fx;
  auto dc = fx.config(2);
  dc.max_worker_retries = 4;
  fault::install("ddp_proc_kill:die@1:0");
  (void)distributed::train_ddp_procs(fx.spec("TransE"), fx.ds.train, dc);
  fault::clear();

  const std::string json = distributed::ddp_health_json();
  EXPECT_NE(json.find("\"mode\": \"procs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"active\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lost\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"transport\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"lost\": 0"), std::string::npos)
      << "lost count missing the injected death: " << json;
  expect_no_children();
}

}  // namespace
}  // namespace sptx
