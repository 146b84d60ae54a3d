// Process-wide work-stealing task runtime — the one view of parallelism.
//
// Before this subsystem, three ad-hoc threading schemes coexisted (the
// OpenMP parallel_for under the SpMM kernels, the trainer's epoch-prefetch
// thread, the DDP fork/join workers, the MicroBatcher's execution slots)
// and each assumed it owned the machine, so composing them — training while
// serving, DDP shards running fused kernels — oversubscribed cores. The
// TaskPool replaces all of them: a singleton pool of `threads() - 1` worker
// threads (the calling thread is the remaining lane) with Chase-Lev-style
// per-worker deques — the owner pushes and pops at the bottom (LIFO), thieves
// take half the queue from the top (FIFO) — plus a global injection queue for
// tasks submitted from threads outside the pool, and exponential-backoff
// parking for idle workers.
//
// The deques are mutex-guarded rather than lock-free: every task is at least
// a grain of real work, so the per-task lock is uncontended noise, and in
// exchange every lock in this file carries the PR 8 thread-safety
// annotations — the clang TSA build proves the locking discipline instead of
// hoping TSan's schedules hit the races.
//
// Deadlock freedom by construction: a parallel region is driven by its
// caller. `run_region` claims grain-sized chunks from an atomic cursor on
// the calling thread and only posts "ticket" tasks that let idle workers
// join in; if every worker is busy (or the pool has zero workers, or the
// process just fork()ed and the workers died with the parent), the caller
// simply executes every chunk itself. Nested parallel_for inside a task
// therefore composes — worst case it degrades to serial, it can never wait
// on a thread that is waiting on it. TaskGroup::wait() similarly helps
// drain queued tasks instead of blocking, so submit()+wait() works on a
// zero-worker pool.
//
// Knob (runtime-config registry): SPTX_RUNTIME_THREADS caps the pool width
// (default: hardware concurrency).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "src/common/thread_annotations.hpp"

namespace sptx::runtime {

/// Task provenance for the per-class profiling counters: every submitted
/// task and parallel region is tagged, so the health surface can show who
/// is using the pool (kernels vs prefetch vs DDP vs serving).
enum class TaskClass : int {
  kKernel = 0,  // parallel_for chunk work: SpMM, row normalize, k-means
  kPrefetch,    // trainer epoch-prefetch plan compilation
  kDdp,         // DDP worker shard loops
  kServe,       // micro-batcher batch executions
  kAnnBuild,    // serving-snapshot / ANN index construction
  kGeneral,     // untagged submissions
  kNumClasses,
};

const char* task_class_name(TaskClass c);

/// Per-class counters, surfaced through TaskPool::stats / stats_json and
/// Engine::health_json. `stolen` counts executed tasks that migrated off
/// the deque they were queued on (the work-stealing did something) — each
/// task at most once, however many steal hops it took, so stolen <=
/// executed; queue depth and steal ratio live on TaskPool::Stats.
struct ClassStats {
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t stolen = 0;
};

class TaskPool;

/// Completion handle for submit(): a counter of pending tasks plus the
/// first exception any of them threw. wait() rethrows that exception after
/// every task retired — same surface a joined thread gives the caller.
///
/// The intended protocol is single-owner: one thread submits, the same
/// thread waits. Racing submit() against wait() from different threads is
/// not supported (wait() may return while the racing submit's task runs).
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup();  // drains pending tasks, swallowing errors (unwind safety)
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Block until every submitted task has retired, helping execute queued
  /// pool tasks while waiting (deadlock-free on a zero-worker pool: the
  /// waiter runs the tasks itself). Rethrows the first captured exception.
  void wait();

  /// Tasks submitted and not yet retired.
  std::int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class TaskPool;
  std::atomic<std::int64_t> pending_{0};
  Mutex mu_;
  CondVar cv_;                                // signaled when pending_ -> 0
  std::exception_ptr error_ SPTX_GUARDED_BY(mu_);
};

/// Scoped partition hint for NUMA/core-affinity. Workers are assigned to
/// partitions round-robin over the machine's NUMA nodes (1 partition on
/// UMA boxes); tasks submitted inside a Partition scope from outside that
/// partition are pushed onto deques owned by its workers, and thieves
/// prefer victims in their own partition, keeping a partition's task graph
/// on its own cores when the pool is busy. It is a *hint*: any idle worker
/// may still steal any task — throughput beats placement.
class Partition {
 public:
  explicit Partition(int partition);
  ~Partition();
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

 private:
  int previous_;
};

class TaskPool {
 public:
  /// The process-wide pool. Construction latches SPTX_RUNTIME_THREADS from
  /// the runtime-config snapshot; worker threads spawn lazily on first use
  /// (so merely reading stats/threads never starts threads — and a process
  /// that stays below the parallel thresholds never pays for the pool).
  static TaskPool& instance();

  /// Pool width including the calling lane: N means N-1 background workers
  /// plus the thread driving a region. Always >= 1.
  int threads() const;

  /// Number of partition domains (NUMA nodes detected at init, min 1).
  int num_partitions() const;

  /// Re-shape the pool (tests, thread-scaling benches). Joins the current
  /// workers and starts over at the new width. The pool must be quiescent:
  /// no active regions, no unwaited groups, no concurrent submitters —
  /// tasks still queued at resize time are dropped with the old state.
  void resize(int threads);

  /// Enqueue `fn` for asynchronous execution; `group.wait()` joins it.
  /// With zero workers the task runs inside wait() — submit never blocks.
  void submit(TaskGroup& group, std::function<void()> fn,
              TaskClass cls = TaskClass::kGeneral);

  /// Type-erased chunk body: invoked as fn(ctx, i0, i1) for disjoint
  /// [i0, i1) slices covering [begin, end) exactly once.
  using ChunkFn = void (*)(void* ctx, std::int64_t begin, std::int64_t end);

  /// Execute a parallel region over [begin, end) in grain-sized chunks.
  /// The caller drives the region to completion (see file comment); idle
  /// workers join via tickets. Rethrows the first chunk exception after
  /// the region quiesces. Prefer runtime::parallel_for (parallel.hpp).
  void run_region(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  ChunkFn fn, void* ctx, TaskClass cls = TaskClass::kKernel);

  /// Account an execution that ran on the caller's thread under the pool's
  /// admission control (the micro-batcher's execution slots): shows up as
  /// submitted+executed for `cls` without a queue round-trip.
  void record_external(TaskClass cls);

  /// Point-in-time counters for health/benches. queue_depth is the number
  /// of tasks currently enqueued (global + all deques, including stale
  /// region tickets not yet dropped); steal_ratio = stolen / executed.
  struct Stats {
    ClassStats per_class[static_cast<int>(TaskClass::kNumClasses)];
    std::int64_t submitted = 0;  // sums of per_class
    std::int64_t executed = 0;
    std::int64_t stolen = 0;
    std::int64_t queue_depth = 0;
    int parked_workers = 0;
    int threads = 1;
    int partitions = 1;
    double steal_ratio = 0.0;
  };
  Stats stats() const;

  /// The stats as a JSON object (Engine::health_json embeds it verbatim):
  /// {"threads": ..., "queue_depth": ..., "steal_ratio": ...,
  ///  "classes": {"kernel": {...}, ...}}.
  std::string stats_json() const;

 private:
  TaskPool();
  ~TaskPool();
  struct Impl;
  /// The live implementation — revalidated against getpid() so a fork()ed
  /// child (crash-drill tests) gets fresh state instead of waiting on
  /// worker threads that only exist in the parent.
  Impl& impl() const;
  mutable std::atomic<Impl*> impl_{nullptr};

  friend class TaskGroup;
  static void help_group(TaskGroup& group);
};

/// Worker-thread budget the parallel code sizes itself against: the pool
/// width. (The SpMM auto-kernel heuristics consult this.)
int num_threads();

/// RAII join-on-destruction thread for the one dedicated thread that must
/// not be a pool task: the procs-DDP worker's heartbeat, which has to keep
/// beating while every pool lane is busy with shard work. Raw std::thread
/// construction is lint-banned outside src/runtime/ — that site spawns
/// through this wrapper so the ban stays meaningful.
class Thread {
 public:
  template <typename Fn>
  explicit Thread(Fn&& fn) : t_(std::forward<Fn>(fn)) {}
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() {
    if (t_.joinable()) t_.join();
  }

 private:
  std::thread t_;
};

}  // namespace sptx::runtime
