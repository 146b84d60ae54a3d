// Tests for src/runtime/: the process-wide TaskPool and its one queue.
//
// Covers the contracts the migrated call sites lean on:
//  * parallel_for visits every index exactly once for any (n, grain),
//    including after resize() and with nested regions inside submitted
//    tasks (deadlock freedom by caller-driven regions).
//  * Tiny trip counts (n <= grain) run inline — zero tasks submitted, so
//    a hot loop over small rows never pays a pool round-trip.
//  * submit()/TaskGroup::wait() retires every task and rethrows the first
//    task exception; the pool stays usable afterwards.
//  * A parked worker wakes for a push: a submitted task runs while its
//    submitter spins without helping.
//  * DDP training is bit-identical at pool widths 1 and 4: logical workers
//    keep their shard assignment whichever lane runs them.
//  * Stats gauges: queue depth drains to zero at idle, stats_json carries
//    the health-surface keys.
//  * A TSan hammer: external threads submit and drive regions against a
//    resized pool concurrently (CI runs this under SPTX_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/distributed/ddp.hpp"
#include "src/kg/synthetic.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/parallel.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx {
namespace {

using runtime::TaskClass;
using runtime::TaskGroup;
using runtime::TaskPool;

/// queue_depth counts stale region tickets too — a completed parallel_for
/// leaves tickets queued until a worker pops one, sees the region retired,
/// and drops it. The gauge therefore converges to zero shortly after the
/// pool goes idle rather than synchronously with the region's completion.
std::int64_t idle_queue_depth(TaskPool& pool) {
  for (int spin = 0; spin < 2000; ++spin) {
    const auto depth = pool.stats().queue_depth;
    if (depth == 0) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pool.stats().queue_depth;
}

/// Every runtime test runs with an explicit pool width so results do not
/// depend on the host's core count (CI spans 1-core VMs to 8-core runners).
class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { TaskPool::instance().resize(4); }
  void TearDown() override { TaskPool::instance().resize(1); }
};

TEST_F(RuntimeTest, ParallelForVisitsEveryIndexExactlyOnce) {
  const struct {
    std::int64_t n;
    std::int64_t grain;
  } cases[] = {{1, 1}, {7, 2}, {64, 64}, {1000, 16}, {1000, 1}, {4096, 512}};
  for (const auto& c : cases) {
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(c.n));
    runtime::parallel_for(
        0, c.n,
        [&](std::int64_t i) { visits[static_cast<std::size_t>(i)]++; },
        c.grain);
    for (std::int64_t i = 0; i < c.n; ++i) {
      EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << c.n << " grain=" << c.grain << " i=" << i;
    }
  }
}

TEST_F(RuntimeTest, TinyTripCountsRunInlineWithZeroPoolRoundTrips) {
  profiling::CounterWindow submitted(
      profiling::Counter::kRuntimeTasksSubmitted);
  profiling::CounterWindow inlined(profiling::Counter::kRuntimeInlineLoops);
  std::int64_t sum = 0;
  runtime::parallel_for(0, 32, [&](std::int64_t i) { sum += i; },
                        /*grain=*/64);  // n < grain: must not touch the pool
  EXPECT_EQ(sum, 31 * 32 / 2);
  EXPECT_EQ(submitted.elapsed(), 0);
  EXPECT_GE(inlined.elapsed(), 1);
}

TEST_F(RuntimeTest, SubmitAndWaitRetiresEveryTask) {
  auto& pool = TaskPool::instance();
  std::atomic<int> ran{0};
  TaskGroup group;
  for (int i = 0; i < 100; ++i) {
    pool.submit(group, [&ran] { ran++; }, TaskClass::kGeneral);
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(group.pending(), 0);
}

TEST_F(RuntimeTest, WaitRethrowsFirstTaskExceptionAndPoolStaysUsable) {
  auto& pool = TaskPool::instance();
  TaskGroup group;
  pool.submit(group, [] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);

  // The pool must shrug the exception off: later work still completes.
  std::atomic<int> ran{0};
  TaskGroup after;
  pool.submit(after, [&ran] { ran++; });
  after.wait();
  EXPECT_EQ(ran.load(), 1);
}

// Every other test joins its tasks with wait(), and wait() runs queued
// tasks itself, so a push that lost its wake-up would pass unnoticed there.
// Here the submitter spins without helping until the task has run: only the
// parked worker can run it.
TEST_F(RuntimeTest, ParkedWorkerRunsASubmitWithoutTheWaiterHelping) {
  auto& pool = TaskPool::instance();
  pool.resize(2);  // one background worker
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    // Long enough for the worker to drain the previous round and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    std::atomic<bool> ran{false};
    TaskGroup group;
    pool.submit(group, [&ran] { ran.store(true, std::memory_order_release); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!ran.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(ran.load(std::memory_order_acquire)) << "round " << round;
    group.wait();
  }
}

TEST_F(RuntimeTest, ParallelForRethrowsBodyException) {
  EXPECT_THROW(
      runtime::parallel_for(
          0, 1000,
          [](std::int64_t i) {
            if (i == 700) throw std::runtime_error("chunk boom");
          },
          /*grain=*/8),
      std::runtime_error);

  // Region state must have been released cleanly: the next region works.
  std::atomic<std::int64_t> sum{0};
  runtime::parallel_for(0, 100, [&](std::int64_t i) { sum += i; }, 4);
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST_F(RuntimeTest, NestedParallelForInsideSubmittedTaskComposes) {
  auto& pool = TaskPool::instance();
  constexpr int kOuter = 8;
  constexpr std::int64_t kInner = 256;
  std::atomic<std::int64_t> total{0};
  TaskGroup group;
  for (int t = 0; t < kOuter; ++t) {
    pool.submit(group, [&total] {
      runtime::parallel_for(
          0, kInner, [&total](std::int64_t) { total++; }, /*grain=*/16);
    });
  }
  group.wait();
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST_F(RuntimeTest, ResizeReshapesWidthAndKeepsRegionsCorrect) {
  auto& pool = TaskPool::instance();
  for (int width : {1, 2, 8, 4}) {
    pool.resize(width);
    EXPECT_EQ(pool.threads(), width);
    std::atomic<std::int64_t> sum{0};
    runtime::parallel_for(0, 500, [&](std::int64_t i) { sum += i; }, 32);
    EXPECT_EQ(sum.load(), 499 * 500 / 2) << "width=" << width;
  }
}

// Regression for a completion race: execute() used to decrement pending_
// outside the group mutex and then lock it to notify, so a waiter could
// observe pending_ == 0, return from wait(), and destroy the stack
// TaskGroup while the worker was still about to lock/notify the destroyed
// mutex and condvar. Rapid create-wait-destroy cycles with near-empty
// tasks maximize that window; the SPTX_SANITIZE=thread CI job flags the
// use-after-free if the decrement-and-notify handshake ever regresses.
TEST_F(RuntimeTest, StackGroupDestroyedRightAfterWaitChurn) {
  auto& pool = TaskPool::instance();
  std::atomic<int> ran{0};
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    TaskGroup group;
    pool.submit(group, [&ran] { ran++; });
    group.wait();
  }
  EXPECT_EQ(ran.load(), kRounds);
}

TEST_F(RuntimeTest, StatsGaugesDrainAtIdleAndJsonCarriesHealthKeys) {
  auto& pool = TaskPool::instance();
  TaskGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit(group, [&ran] { ran++; }, TaskClass::kGeneral);
  }
  group.wait();
  runtime::parallel_for(0, 2048, [](std::int64_t) {}, 64);

  EXPECT_EQ(idle_queue_depth(pool), 0);  // drains once the pool idles
  const auto stats = pool.stats();
  EXPECT_GE(stats.executed, 64);
  const auto& general =
      stats.per_class[static_cast<int>(TaskClass::kGeneral)];
  EXPECT_GE(general.submitted, 64);
  EXPECT_GE(general.executed, 64);

  const std::string json = pool.stats_json();
  for (const char* key : {"\"threads\"", "\"queue_depth\"",
                          "\"parked_workers\"", "\"classes\"",
                          "\"general\"", "\"kernel\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// ---- DDP bit-identity across pool widths ----------------------------------

models::ModelConfig cfg8() {
  models::ModelConfig cfg;
  cfg.dim = 8;
  cfg.rel_dim = 8;
  return cfg;
}

std::vector<float> train_ddp_probe(const kg::Dataset& ds) {
  distributed::DdpConfig dc;
  dc.workers = 3;
  dc.epochs = 2;
  dc.batch_size = 128;
  dc.shard_size = 32;
  dc.lr = 0.01f;
  dc.seed = 5;
  auto make = [n = ds.num_entities(), r = ds.num_relations()](Rng& rng) {
    return models::make_sparse_model("TransE", n, r, cfg8(), rng);
  };
  const auto result = distributed::train_ddp(make, ds.train, dc);
  return result.model->score(ds.train.slice(0, 16));
}

TEST_F(RuntimeTest, DdpBitIdenticalAcrossPoolWidths) {
  Rng rng(71);
  const auto ds = kg::generate({"runtime_ddp", 80, 6, 400}, rng, 0.0, 0.0);

  // Width 1: the driving thread runs every logical worker inline; width 4:
  // the three workers spread over pool lanes.
  TaskPool::instance().resize(1);
  const std::vector<float> serial_scores = train_ddp_probe(ds);
  TaskPool::instance().resize(4);
  const std::vector<float> pooled_scores = train_ddp_probe(ds);
  ASSERT_EQ(serial_scores.size(), pooled_scores.size());
  for (std::size_t i = 0; i < serial_scores.size(); ++i) {
    EXPECT_EQ(serial_scores[i], pooled_scores[i]) << "i=" << i;  // bitwise
  }
}

// ---- TSan hammer -----------------------------------------------------------

// External threads drive regions, submit tasks, and read stats against the
// same pool concurrently. No assertion beyond the counts: the point is the
// schedule space TSan explores in the SPTX_SANITIZE=thread CI job.
TEST_F(RuntimeTest, ConcurrentExternalDriversHammer) {
  auto& pool = TaskPool::instance();
  constexpr int kDrivers = 4;
  constexpr int kRounds = 25;
  std::atomic<std::int64_t> visited{0};
  std::atomic<int> tasks_ran{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int r = 0; r < kRounds; ++r) {
        runtime::parallel_for(
            0, 256, [&visited](std::int64_t) { visited++; }, /*grain=*/16);
        TaskGroup group;
        for (int i = 0; i < 8; ++i) {
          pool.submit(group, [&tasks_ran] { tasks_ran++; },
                      d % 2 ? TaskClass::kKernel : TaskClass::kDdp);
        }
        group.wait();
        (void)pool.stats();
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(visited.load(), std::int64_t{kDrivers} * kRounds * 256);
  EXPECT_EQ(tasks_ran.load(), kDrivers * kRounds * 8);
  EXPECT_EQ(idle_queue_depth(pool), 0);
}

}  // namespace
}  // namespace sptx
