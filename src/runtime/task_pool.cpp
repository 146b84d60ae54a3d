#include "src/runtime/task_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/runtime_config.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::runtime {
namespace {

constexpr int kNumClasses = static_cast<int>(TaskClass::kNumClasses);

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Shared state of one parallel region. Never freed — completed states
/// return to a freelist and are recycled (serial-stamped so a stale ticket
/// popped after recycling refuses to participate), which keeps steady-state
/// parallel_for allocation-free.
struct RegionState {
  // Hot claim path: lock-free chunk cursor + in-flight execution count.
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;
  std::int64_t grain = 1;
  TaskPool::ChunkFn fn = nullptr;
  void* ctx = nullptr;
  TaskClass cls = TaskClass::kKernel;
  /// Claim attempts currently inside fn (or between cursor bump and
  /// retire). The region is complete when the cursor is exhausted AND this
  /// is zero — which also covers the poisoned (exception) case where
  /// unclaimed chunks never run.
  std::atomic<std::int64_t> in_flight{0};

  // Cold completion/recycling path.
  Mutex mu;
  CondVar cv;
  std::uint64_t serial SPTX_GUARDED_BY(mu) = 0;
  bool done SPTX_GUARDED_BY(mu) = false;
  int active_helpers SPTX_GUARDED_BY(mu) = 0;
  std::exception_ptr error SPTX_GUARDED_BY(mu);

  /// Ticket entry: join the region iff it is still the same incarnation
  /// and not yet complete. A successful enter pins the state against
  /// recycling until exit_helper().
  bool try_enter(std::uint64_t ticket_serial) SPTX_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (serial != ticket_serial || done) return false;
    ++active_helpers;
    return true;
  }

  void exit_helper() SPTX_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (--active_helpers == 0 && done) cv.notify_all();
  }

  void record_error(std::exception_ptr e) SPTX_EXCLUDES(mu) {
    {
      MutexLock lock(mu);
      if (!error) error = std::move(e);
    }
    // Poison the cursor: remaining chunks are abandoned, claimants drain.
    next.store(end, std::memory_order_release);
  }

  void mark_done() SPTX_EXCLUDES(mu) {
    MutexLock lock(mu);
    done = true;
    cv.notify_all();
  }
};

/// One queued unit of work. Closures (submit) carry an owning std::function
/// and their TaskGroup; region tickets carry a pointer into the region
/// freelist plus the serial that guards against executing a recycled slot.
struct Task {
  enum class Kind : std::uint8_t { kClosure, kTicket };
  Kind kind = Kind::kClosure;
  TaskClass cls = TaskClass::kGeneral;
  std::function<void()> fn;          // kClosure
  TaskGroup* group = nullptr;        // kClosure
  RegionState* region = nullptr;     // kTicket
  std::uint64_t serial = 0;          // kTicket: RegionState recycle guard
};

/// Growable FIFO ring buffer of Tasks. Capacity persists across the pool's
/// steady state, so per-epoch kernel tickets allocate nothing once warm
/// (test_workspace asserts that training allocates nothing per batch). Not
/// thread-safe; the pool's queue mutex guards it.
class TaskRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(Task t) {
    reserve_for_one();
    slots_[(head_ + size_) & mask_] = std::move(t);
    ++size_;
  }

  Task pop_front() {
    Task t = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return t;
  }

 private:
  void reserve_for_one() {
    if (size_ < slots_.size()) return;
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Task> grown(cap);
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(slots_[(head_ + i) & mask_]);
    slots_ = std::move(grown);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<Task> slots_;  // capacity always a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace

struct TaskPool::Impl {
  explicit Impl(int width) : configured_threads(std::max(1, width)) {}

  const int configured_threads;  // pool width incl. the calling lane
  const ::pid_t pid = ::getpid();

  // The task queue. Workers park on `ready` while it is empty; `parked`
  // counts them so a push signals only when someone is asleep.
  Mutex mu;
  CondVar ready;
  TaskRing queue SPTX_GUARDED_BY(mu);
  int parked SPTX_GUARDED_BY(mu) = 0;
  bool stopping SPTX_GUARDED_BY(mu) = false;

  // Region freelist (see RegionState).
  Mutex regions_mu;
  std::vector<RegionState*> free_regions SPTX_GUARDED_BY(regions_mu);

  // Per-class counters (relaxed; read by stats()).
  std::atomic<std::int64_t> submitted[kNumClasses] = {};
  std::atomic<std::int64_t> executed[kNumClasses] = {};

  // The Impl this one replaced (resize, fork), retained rather than freed
  // (see resize()); linked here so leak checkers see it as reachable.
  Impl* retired = nullptr;

  // Declared after everything the workers use.
  std::vector<std::thread> workers;  // configured_threads - 1 of them
  std::atomic<bool> workers_spawned{false};
  Mutex spawn_mu;  // serializes lazy spawn / resize / shutdown

  // ---- queue ---------------------------------------------------------------

  void count_submit(TaskClass cls, std::int64_t n = 1) {
    submitted[static_cast<int>(cls)].fetch_add(n, std::memory_order_relaxed);
    profiling::count_event(profiling::Counter::kRuntimeTasksSubmitted, n);
  }

  void push(Task t) SPTX_EXCLUDES(mu) {
    bool wake;
    {
      MutexLock lock(mu);
      queue.push_back(std::move(t));
      // A worker that is not counted here has not parked yet, and it will
      // see this task when it re-checks the queue under mu before parking.
      wake = parked > 0;
    }
    if (wake) ready.notify_one();
  }

  bool try_pop(Task& out) SPTX_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (queue.empty()) return false;
    out = queue.pop_front();
    return true;
  }

  // ---- execution -----------------------------------------------------------

  void drive_region(RegionState* r) {
    for (;;) {
      r->in_flight.fetch_add(1, std::memory_order_acq_rel);
      const std::int64_t i0 = r->next.fetch_add(r->grain,
                                                std::memory_order_acq_rel);
      if (i0 >= r->end) {
        retire_claim(r);
        return;
      }
      const std::int64_t i1 = std::min(i0 + r->grain, r->end);
      try {
        r->fn(r->ctx, i0, i1);
      } catch (...) {
        r->record_error(std::current_exception());
      }
      profiling::count_event(profiling::Counter::kRuntimeChunksExecuted);
      retire_claim(r);
    }
  }

  void retire_claim(RegionState* r) {
    if (r->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        r->next.load(std::memory_order_acquire) >= r->end) {
      r->mark_done();
    }
  }

  void execute(Task t) {
    executed[static_cast<int>(t.cls)].fetch_add(1, std::memory_order_relaxed);
    profiling::count_event(profiling::Counter::kRuntimeTasksExecuted);
    if (t.kind == Task::Kind::kTicket) {
      // A ticket for an already-finished (recycled) region is a no-op: the
      // serial check refuses entry and the ticket is simply consumed.
      if (t.region->try_enter(t.serial)) {
        drive_region(t.region);
        t.region->exit_helper();
      }
      return;
    }
    TaskGroup* group = t.group;
    std::exception_ptr err;
    try {
      t.fn();
    } catch (...) {
      err = std::current_exception();
    }
    // Destroy the closure before signaling completion: once pending_ hits 0
    // the submitter may tear down state the closure's captures reference.
    t.fn = nullptr;
    // Decrement and notify inside one critical section on the group lock.
    // This is the lifetime handshake with help_group(): a waiter only
    // returns after taking mu_ and thus after this lane has released it,
    // so a stack TaskGroup (ddp's tg, the trainer's lookahead group) can be
    // destroyed the moment wait() returns without racing this notify.
    MutexLock lock(group->mu_);
    if (err && !group->error_) group->error_ = std::move(err);
    if (group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      group->cv_.notify_all();
  }

  void worker_main() {
    for (;;) {
      Task t;
      {
        MutexLock lock(mu);
        while (queue.empty() && !stopping) {
          ++parked;
          ready.wait(mu);
          --parked;
        }
        if (stopping) return;
        t = queue.pop_front();
      }
      execute(std::move(t));
    }
  }

  void ensure_spawned() {
    if (workers_spawned.load(std::memory_order_acquire)) return;
    MutexLock lock(spawn_mu);
    if (workers_spawned.load(std::memory_order_relaxed)) return;
    const int n = configured_threads - 1;
    workers.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) workers.emplace_back([this] { worker_main(); });
    workers_spawned.store(true, std::memory_order_release);
  }

  void shutdown() {
    {
      MutexLock lock(mu);
      stopping = true;
    }
    ready.notify_all();
    for (auto& t : workers) t.join();
    workers.clear();
  }

  // ---- regions -------------------------------------------------------------

  RegionState* acquire_region() {
    {
      MutexLock lock(regions_mu);
      if (!free_regions.empty()) {
        RegionState* r = free_regions.back();
        free_regions.pop_back();
        return r;
      }
    }
    return new RegionState();  // retained forever via the freelist
  }

  void release_region(RegionState* r) {
    MutexLock lock(regions_mu);
    free_regions.push_back(r);
  }
};

// ---- TaskPool --------------------------------------------------------------

TaskPool& TaskPool::instance() {
  static TaskPool pool;
  return pool;
}

TaskPool::TaskPool() = default;

TaskPool::~TaskPool() {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl != nullptr && impl->pid == ::getpid()) impl->shutdown();
}

TaskPool::Impl& TaskPool::impl() const {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl != nullptr && impl->pid == ::getpid()) return *impl;
  // First use, or first use after fork() (the crash-drill tests fork and
  // keep training in the child; the parent's workers don't exist there, so
  // the child gets fresh state — the old Impl is intentionally retained:
  // its mutexes may be unusable post-fork and freeing it could touch them).
  const int width = static_cast<int>(
      config::current()->int_or("SPTX_RUNTIME_THREADS", hardware_threads()));
  Impl* fresh = new Impl(width);
  fresh->retired = impl;
  Impl* expected = impl;
  if (!impl_.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
    delete fresh;  // lost the race; winner's state is current (same pid)
    return *expected;
  }
  return *fresh;
}

int TaskPool::threads() const { return impl().configured_threads; }

void TaskPool::resize(int threads) {
  Impl& old = impl();
  SPTX_CHECK(threads >= 1, "TaskPool::resize needs threads >= 1");
  if (threads == old.configured_threads &&
      !old.workers_spawned.load(std::memory_order_acquire))
    return;
  old.shutdown();
  Impl* fresh = new Impl(threads);
  fresh->retired = &old;
  // Counters carry over so stats()/bench windows survive a resize.
  for (int c = 0; c < kNumClasses; ++c) {
    fresh->submitted[c] = old.submitted[c].load(std::memory_order_relaxed);
    fresh->executed[c] = old.executed[c].load(std::memory_order_relaxed);
  }
  impl_.store(fresh, std::memory_order_release);
  // The old Impl is retained (its queues must be idle per the contract);
  // freeing it would race readers that grabbed the pointer pre-swap.
}

void TaskPool::submit(TaskGroup& group, std::function<void()> fn,
                      TaskClass cls) {
  Impl& s = impl();
  s.ensure_spawned();
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  Task t;
  t.kind = Task::Kind::kClosure;
  t.cls = cls;
  t.fn = std::move(fn);
  t.group = &group;
  s.count_submit(cls);
  s.push(std::move(t));
}

void TaskPool::run_region(std::int64_t begin, std::int64_t end,
                          std::int64_t grain, ChunkFn fn, void* ctx,
                          TaskClass cls) {
  Impl& s = impl();
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  profiling::count_event(profiling::Counter::kRuntimeParallelRegions);
  RegionState* r = s.acquire_region();
  std::uint64_t serial;
  {
    MutexLock lock(r->mu);
    r->done = false;
    r->error = nullptr;
    serial = r->serial;
  }
  r->next.store(begin, std::memory_order_relaxed);
  r->end = end;
  r->grain = grain;
  r->fn = fn;
  r->ctx = ctx;
  r->cls = cls;
  r->in_flight.store(0, std::memory_order_release);

  // Invite at most one idle lane per remaining chunk beyond our own.
  const std::int64_t chunks = (n + grain - 1) / grain;
  const int tickets = static_cast<int>(
      std::min<std::int64_t>(s.configured_threads - 1, chunks - 1));
  if (tickets > 0) {
    s.ensure_spawned();
    s.count_submit(cls, tickets);
    for (int i = 0; i < tickets; ++i) {
      Task t;
      t.kind = Task::Kind::kTicket;
      t.cls = cls;
      t.region = r;
      t.serial = serial;
      s.push(std::move(t));
    }
  }

  s.drive_region(r);

  std::exception_ptr err;
  {
    MutexLock lock(r->mu);
    while (!r->done) r->cv.wait(r->mu);
    while (r->active_helpers > 0) r->cv.wait(r->mu);
    err = r->error;
    r->error = nullptr;
    ++r->serial;  // any ticket still queued is now provably stale
  }
  s.release_region(r);
  if (err) std::rethrow_exception(err);
}

void TaskPool::help_group(TaskGroup& group) {
  Impl& s = instance().impl();
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    Task t;
    if (s.try_pop(t)) {
      s.execute(std::move(t));
      continue;
    }
    // Nothing queued: the group's tasks are executing on other lanes.
    // Block until the count drains. The last task's notify ends the wait;
    // the timeout only sends this lane back to the queue, to help with
    // region tickets those tasks post meanwhile.
    MutexLock lock(group.mu_);
    // Safe exit: pending_ only reaches 0 inside mu_ (see execute()), so
    // observing 0 while holding the lock proves the last notifier has
    // already released the group.
    if (group.pending_.load(std::memory_order_acquire) == 0) return;
    group.cv_.wait_until(
        group.mu_,
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2));
  }
  // The loop condition observed pending_ == 0 *without* the lock — the
  // final notifier may still be inside its decrement-and-notify critical
  // section. Take mu_ once so its release happens-before we return and the
  // caller is free to destroy the group.
  MutexLock lock(group.mu_);
}

TaskPool::Stats TaskPool::stats() const {
  Impl& s = impl();
  Stats out;
  out.threads = s.configured_threads;
  {
    MutexLock lock(s.mu);
    out.queue_depth = static_cast<std::int64_t>(s.queue.size());
    out.parked_workers = s.parked;
  }
  for (int c = 0; c < kNumClasses; ++c) {
    out.per_class[c].submitted = s.submitted[c].load(std::memory_order_relaxed);
    out.per_class[c].executed = s.executed[c].load(std::memory_order_relaxed);
    out.submitted += out.per_class[c].submitted;
    out.executed += out.per_class[c].executed;
  }
  return out;
}

std::string TaskPool::stats_json() const {
  const Stats s = stats();
  std::string out = "{\"threads\": " + std::to_string(s.threads);
  out += ", \"queue_depth\": " + std::to_string(s.queue_depth);
  out += ", \"parked_workers\": " + std::to_string(s.parked_workers);
  out += ", \"tasks_submitted\": " + std::to_string(s.submitted);
  out += ", \"tasks_executed\": " + std::to_string(s.executed);
  out += ", \"classes\": {";
  for (int c = 0; c < kNumClasses; ++c) {
    if (c > 0) out += ", ";
    out += '"';
    out += task_class_name(static_cast<TaskClass>(c));
    out += "\": {\"submitted\": " + std::to_string(s.per_class[c].submitted);
    out += ", \"executed\": " + std::to_string(s.per_class[c].executed) + "}";
  }
  out += "}}";
  return out;
}

// ---- TaskGroup -------------------------------------------------------------

TaskGroup::~TaskGroup() {
  if (pending_.load(std::memory_order_acquire) != 0) {
    // Unwind safety: drain without throwing (mirrors the joining-thread
    // destructor the prefetch path used to rely on).
    try {
      TaskPool::help_group(*this);
    } catch (...) {
    }
  }
  // A group that drained an instant ago may still have its last notifier
  // inside the decrement-and-notify critical section (execute()); taking
  // mu_ once orders that release before the members are destroyed.
  MutexLock lock(mu_);
}

void TaskGroup::wait() {
  TaskPool::help_group(*this);
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

// ---- free functions --------------------------------------------------------

const char* task_class_name(TaskClass c) {
  switch (c) {
    case TaskClass::kKernel: return "kernel";
    case TaskClass::kPrefetch: return "prefetch";
    case TaskClass::kDdp: return "ddp";
    case TaskClass::kGeneral: return "general";
    case TaskClass::kNumClasses: break;
  }
  return "unknown";
}

int num_threads() { return TaskPool::instance().threads(); }

}  // namespace sptx::runtime
