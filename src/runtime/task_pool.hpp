// Process-wide task runtime: the one view of parallelism.
//
// Every parallel site runs on one singleton pool: the SpMM kernels' row
// blocks, the trainer's plan lookahead, the DDP shard loops and the
// serving kernels. The pool holds `threads() - 1` worker threads (the
// calling thread is the remaining lane) and one FIFO task queue. One mutex
// guards the queue and one condition variable parks idle workers. A worker
// parks only while the queue is empty and the pool is not stopping, and it
// checks that under the queue's mutex, so a push can never be missed.
//
// One queue is enough because the queued work is coarse. A region ticket
// only invites an idle lane to claim chunks from the region's cursor, and a
// submitted task is a whole DDP shard loop or one batch's plan compile, so
// which lane pops which task changes no result and little time. Every lock in
// this file carries the thread-safety annotations, so the clang build
// checks the locking discipline.
//
// Deadlock freedom by construction: a parallel region is driven by its
// caller. `run_region` claims grain-sized chunks from an atomic cursor on
// the calling thread and only posts "ticket" tasks that let idle workers
// join in; if every worker is busy (or the pool has zero workers, or the
// process just fork()ed and the workers died with the parent), the caller
// simply executes every chunk itself. Nested parallel_for inside a task
// therefore composes: worst case it degrades to serial, it can never wait
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
/// is using the pool.
enum class TaskClass : int {
  kKernel = 0,  // parallel_for chunk work: SpMM, row normalize, k-means
  kPrefetch,    // trainer's one-batch-ahead plan compilation
  kDdp,         // DDP worker shard loops
  kGeneral,     // untagged submissions
  kNumClasses,
};

const char* task_class_name(TaskClass c);

/// Per-class counters, surfaced through TaskPool::stats / stats_json and
/// Engine::health_json.
struct ClassStats {
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
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

  /// Point-in-time counters for health/benches. queue_depth is the number
  /// of tasks currently queued, including stale region tickets not yet
  /// dropped.
  struct Stats {
    ClassStats per_class[static_cast<int>(TaskClass::kNumClasses)];
    std::int64_t submitted = 0;  // sums of per_class
    std::int64_t executed = 0;
    std::int64_t queue_depth = 0;
    int parked_workers = 0;
    int threads = 1;
  };
  Stats stats() const;

  /// The stats as a JSON object (Engine::health_json embeds it verbatim):
  /// {"threads": ..., "queue_depth": ..., "parked_workers": ...,
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
