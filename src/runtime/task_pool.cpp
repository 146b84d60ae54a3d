#include "src/runtime/task_pool.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/runtime_config.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::runtime {
namespace {

constexpr int kNumClasses = static_cast<int>(TaskClass::kNumClasses);

/// Identity of the current thread inside the pool: worker index, or -1 for
/// external threads (the trainer's driving thread, serving clients).
thread_local int tls_worker_index = -1;

/// Partition hint installed by a runtime::Partition scope; -1 = no hint.
thread_local int tls_partition = -1;

/// NUMA-node count via sysfs; 1 when the topology is invisible (containers,
/// non-Linux). Partitioning is a scheduling hint, so a conservative answer
/// is always safe.
int detect_numa_nodes() {
  int nodes = 0;
  for (;; ++nodes) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(nodes);
    if (::access(path.c_str(), F_OK) != 0) break;
  }
  return nodes > 0 ? nodes : 1;
}

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
  int partition = -1;   // hint from the submitting scope (routes push())
  bool migrated = false;  // left the deque it was queued on (steal_from)
  std::function<void()> fn;          // kClosure
  TaskGroup* group = nullptr;        // kClosure
  RegionState* region = nullptr;     // kTicket
  std::uint64_t serial = 0;          // kTicket: RegionState recycle guard
};

/// Growable ring buffer of Tasks. Capacity persists across the pool's
/// steady state, so per-epoch kernel tickets allocate nothing once warm —
/// the zero-allocation property test_workspace asserts for training must
/// survive the runtime migration. Not thread-safe; every instance is
/// guarded by its owner's mutex.
class TaskRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(Task t) {
    reserve_for_one();
    slots_[(head_ + size_) & mask_] = std::move(t);
    ++size_;
  }

  /// Owner side: newest task (LIFO — the Chase-Lev bottom).
  Task pop_back() {
    Task t = std::move(slots_[(head_ + size_ - 1) & mask_]);
    --size_;
    return t;
  }

  /// Thief side: oldest task (FIFO — the Chase-Lev top).
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
  explicit Impl(int width)
      : configured_threads(std::max(1, width)),
        partitions(detect_numa_nodes()) {}

  const int configured_threads;  // pool width incl. the calling lane
  const int partitions;
  const ::pid_t pid = ::getpid();

  struct WorkerQueue {
    Mutex mu;
    TaskRing ring SPTX_GUARDED_BY(mu);
  };

  // One deque per background worker (workers_.size() == threads - 1).
  std::vector<std::unique_ptr<WorkerQueue>> deques;
  std::vector<std::thread> workers;
  std::atomic<bool> workers_spawned{false};
  Mutex spawn_mu;  // serializes lazy spawn / resize / shutdown

  // Global injection queue for external submitters.
  WorkerQueue global;

  // Parking lot. total_queued is the queue-depth gauge AND the wakeup
  // predicate: producers bump it before notifying, parkers re-check it
  // under park_mu before sleeping, so a wakeup can never be missed (and a
  // timed backoff backstops even a reasoning error here).
  std::atomic<std::int64_t> total_queued{0};
  Mutex park_mu;
  CondVar park_cv;
  bool stopping SPTX_GUARDED_BY(park_mu) = false;

  // Region freelist (see RegionState).
  Mutex regions_mu;
  std::vector<RegionState*> free_regions SPTX_GUARDED_BY(regions_mu);

  // Per-class counters (relaxed; read by stats()).
  std::atomic<std::int64_t> submitted[kNumClasses] = {};
  std::atomic<std::int64_t> executed[kNumClasses] = {};
  std::atomic<std::int64_t> stolen[kNumClasses] = {};
  std::atomic<int> parked{0};

  // Round-robin cursor spreading partition-hinted pushes across the hinted
  // partition's workers.
  std::atomic<std::uint32_t> hint_cursor{0};

  // ---- queue plumbing ------------------------------------------------------

  void count_submit(TaskClass cls, std::int64_t n = 1) {
    submitted[static_cast<int>(cls)].fetch_add(n, std::memory_order_relaxed);
    profiling::count_event(profiling::Counter::kRuntimeTasksSubmitted, n);
  }

  /// Deque owned by a worker serving partition `part` (workers map to
  /// partitions round-robin: worker w serves partition w % partitions),
  /// rotating among that partition's workers. nullptr when no spawned
  /// worker serves it (zero-worker pool, or width < partition count).
  WorkerQueue* partition_queue(int part) {
    const int n = static_cast<int>(deques.size());
    if (n == 0) return nullptr;
    const int residue = part % partitions;
    const int offset = static_cast<int>(
        hint_cursor.fetch_add(1, std::memory_order_relaxed) %
        static_cast<std::uint32_t>(n));
    for (int i = 0; i < n; ++i) {
      const int cand = (offset + i) % n;
      if (cand % partitions == residue) return deques[cand].get();
    }
    return nullptr;
  }

  void push(Task t) {
    const int w = tls_worker_index;
    WorkerQueue* q = nullptr;
    // A Partition hint targeting a different partition than the submitting
    // lane routes the task onto one of that partition's deques, where
    // pass 0 of try_steal keeps it among same-partition workers. Without a
    // hint (or when the hint names the submitter's own partition) the
    // owner's deque / global injection queue preserves LIFO locality.
    if (t.partition >= 0 &&
        (w < 0 || w % partitions != t.partition % partitions))
      q = partition_queue(t.partition);
    if (q == nullptr)
      q = (w >= 0 && w < static_cast<int>(deques.size()))
              ? deques[static_cast<std::size_t>(w)].get()
              : &global;
    {
      MutexLock lock(q->mu);
      q->ring.push_back(std::move(t));
    }
    total_queued.fetch_add(1, std::memory_order_release);
    wake_one();
  }

  void wake_one() {
    if (parked.load(std::memory_order_acquire) == 0) return;
    MutexLock lock(park_mu);
    park_cv.notify_one();
  }

  void wake_all() {
    MutexLock lock(park_mu);
    park_cv.notify_all();
  }

  bool pop_own(int w, Task& out) {
    WorkerQueue& q = *deques[static_cast<std::size_t>(w)];
    MutexLock lock(q.mu);
    if (q.ring.empty()) return false;
    out = q.ring.pop_back();
    total_queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  bool pop_global(Task& out) {
    MutexLock lock(global.mu);
    if (global.ring.empty()) return false;
    out = global.ring.pop_front();
    total_queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Steal-half from `victim` into `thief`'s deque; the first stolen task
  /// is returned for immediate execution. Returns false when the victim
  /// was empty.
  bool steal_from(int victim, int thief, Task& out) {
    std::vector<Task> haul;
    {
      WorkerQueue& q = *deques[static_cast<std::size_t>(victim)];
      MutexLock lock(q.mu);
      const std::size_t n = q.ring.size();
      if (n == 0) return false;
      const std::size_t take = (n + 1) / 2;  // steal half, at least one
      haul.reserve(take);
      for (std::size_t i = 0; i < take; ++i)
        haul.push_back(q.ring.pop_front());
    }
    // Mark (don't count) the haul: the take-1 tasks re-queued below can be
    // stolen again, so counting here would double-count them. execute()
    // bumps the stolen counters exactly once per migrated task.
    for (Task& t : haul) t.migrated = true;
    out = std::move(haul.front());
    total_queued.fetch_sub(1, std::memory_order_relaxed);
    if (haul.size() > 1) {
      WorkerQueue& mine = *deques[static_cast<std::size_t>(thief)];
      MutexLock lock(mine.mu);
      for (std::size_t i = 1; i < haul.size(); ++i)
        mine.ring.push_back(std::move(haul[i]));
    }
    return true;
  }

  /// Victim scan order for `thief`: same-partition workers first (the
  /// Partition locality hint), then the rest, round-robin from the thief.
  bool try_steal(int thief, Task& out) {
    const int n = static_cast<int>(deques.size());
    const int my_part = thief % partitions;
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 1; i <= n; ++i) {
        const int victim = (thief + i) % n;
        if (victim == thief) continue;
        const bool same_part = victim % partitions == my_part;
        if ((pass == 0) != same_part) continue;
        if (steal_from(victim, thief, out)) return true;
      }
    }
    return false;
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
    if (t.migrated) {
      // Counted at execution, once per task: a task that migrated off the
      // deque it was queued on (however many hops it took) is one steal,
      // so stolen <= executed and steal_ratio stays a true fraction.
      stolen[static_cast<int>(t.cls)].fetch_add(1, std::memory_order_relaxed);
      profiling::count_event(profiling::Counter::kRuntimeTasksStolen);
    }
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
    // so a stack TaskGroup (ddp's tg, the trainer's prefetch group) can be
    // destroyed the moment wait() returns without racing this notify.
    MutexLock lock(group->mu_);
    if (err && !group->error_) group->error_ = std::move(err);
    if (group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      group->cv_.notify_all();
  }

  /// One dequeue attempt from the perspective of thread `w` (-1 = external:
  /// global queue only — an external helper must not drain worker deques
  /// out from under the owner's LIFO).
  bool next_task(int w, Task& out) {
    if (w >= 0 && pop_own(w, out)) return true;
    if (pop_global(out)) return true;
    if (w >= 0 && try_steal(w, out)) return true;
    return false;
  }

  void worker_main(int w) {
    tls_worker_index = w;
    auto backoff = std::chrono::microseconds(50);
    // Cap at 2ms: an idle worker costs ~500 empty scans/s (noise), and any
    // lost-notify race (see below) delays a task by at most one backoff —
    // which must stay well under serving-deadline magnitudes.
    constexpr auto kMaxBackoff = std::chrono::microseconds(2000);
    for (;;) {
      Task t;
      if (next_task(w, t)) {
        execute(std::move(t));
        backoff = std::chrono::microseconds(50);
        continue;
      }
      // Exponential-backoff parking: brief spin (other lanes may be about
      // to publish tickets), then a timed wait that doubles from 50us up
      // to the 2ms kMaxBackoff cap. total_queued is re-checked under
      // park_mu, so a push+notify cannot slip between our last scan and
      // the wait.
      bool stop = false;
      {
        MutexLock lock(park_mu);
        if (stopping) return;
        if (total_queued.load(std::memory_order_acquire) == 0) {
          parked.fetch_add(1, std::memory_order_release);
          park_cv.wait_until(park_mu,
                             std::chrono::steady_clock::now() + backoff);
          parked.fetch_sub(1, std::memory_order_release);
          stop = stopping;
          backoff = std::min(backoff * 2, kMaxBackoff);
        }
      }
      if (stop) return;
    }
  }

  void ensure_spawned() {
    if (workers_spawned.load(std::memory_order_acquire)) return;
    MutexLock lock(spawn_mu);
    if (workers_spawned.load(std::memory_order_relaxed)) return;
    const int n = configured_threads - 1;
    deques.reserve(static_cast<std::size_t>(n));
    workers.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w)
      deques.push_back(std::make_unique<WorkerQueue>());
    for (int w = 0; w < n; ++w)
      workers.emplace_back([this, w] { worker_main(w); });
    workers_spawned.store(true, std::memory_order_release);
  }

  void shutdown() {
    {
      MutexLock lock(park_mu);
      stopping = true;
      park_cv.notify_all();
    }
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
  Impl* expected = impl;
  if (!impl_.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
    delete fresh;  // lost the race; winner's state is current (same pid)
    return *expected;
  }
  return *fresh;
}

int TaskPool::threads() const { return impl().configured_threads; }

int TaskPool::num_partitions() const { return impl().partitions; }

void TaskPool::resize(int threads) {
  Impl& old = impl();
  SPTX_CHECK(threads >= 1, "TaskPool::resize needs threads >= 1");
  if (threads == old.configured_threads &&
      !old.workers_spawned.load(std::memory_order_acquire))
    return;
  old.shutdown();
  Impl* fresh = new Impl(threads);
  // Counters carry over so stats()/bench windows survive a resize.
  for (int c = 0; c < kNumClasses; ++c) {
    fresh->submitted[c] = old.submitted[c].load(std::memory_order_relaxed);
    fresh->executed[c] = old.executed[c].load(std::memory_order_relaxed);
    fresh->stolen[c] = old.stolen[c].load(std::memory_order_relaxed);
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
  t.partition = tls_partition;
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
      t.partition = tls_partition;
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

void TaskPool::record_external(TaskClass cls) {
  Impl& s = impl();
  s.count_submit(cls);
  s.executed[static_cast<int>(cls)].fetch_add(1, std::memory_order_relaxed);
  profiling::count_event(profiling::Counter::kRuntimeTasksExecuted);
}

void TaskPool::help_group(TaskGroup& group) {
  Impl& s = instance().impl();
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    Task t;
    if (s.next_task(tls_worker_index, t)) {
      s.execute(std::move(t));
      continue;
    }
    // Nothing runnable anywhere: the group's tasks are executing on other
    // lanes. Block until the count drains (timed, as a lost-wakeup
    // backstop — correctness never depends on the notify arriving).
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
  out.partitions = s.partitions;
  out.queue_depth = s.total_queued.load(std::memory_order_acquire);
  out.parked_workers = s.parked.load(std::memory_order_acquire);
  for (int c = 0; c < kNumClasses; ++c) {
    out.per_class[c].submitted = s.submitted[c].load(std::memory_order_relaxed);
    out.per_class[c].executed = s.executed[c].load(std::memory_order_relaxed);
    out.per_class[c].stolen = s.stolen[c].load(std::memory_order_relaxed);
    out.submitted += out.per_class[c].submitted;
    out.executed += out.per_class[c].executed;
    out.stolen += out.per_class[c].stolen;
  }
  out.steal_ratio =
      out.executed > 0
          ? static_cast<double>(out.stolen) / static_cast<double>(out.executed)
          : 0.0;
  return out;
}

std::string TaskPool::stats_json() const {
  const Stats s = stats();
  std::string out = "{\"threads\": " + std::to_string(s.threads);
  out += ", \"partitions\": " + std::to_string(s.partitions);
  out += ", \"queue_depth\": " + std::to_string(s.queue_depth);
  out += ", \"parked_workers\": " + std::to_string(s.parked_workers);
  out += ", \"tasks_submitted\": " + std::to_string(s.submitted);
  out += ", \"tasks_executed\": " + std::to_string(s.executed);
  out += ", \"tasks_stolen\": " + std::to_string(s.stolen);
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.4f", s.steal_ratio);
  out += ", \"steal_ratio\": ";
  out += ratio;
  out += ", \"classes\": {";
  for (int c = 0; c < kNumClasses; ++c) {
    if (c > 0) out += ", ";
    out += '"';
    out += task_class_name(static_cast<TaskClass>(c));
    out += "\": {\"submitted\": " + std::to_string(s.per_class[c].submitted);
    out += ", \"executed\": " + std::to_string(s.per_class[c].executed);
    out += ", \"stolen\": " + std::to_string(s.per_class[c].stolen) + "}";
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

// ---- Partition -------------------------------------------------------------

Partition::Partition(int partition) : previous_(tls_partition) {
  tls_partition = partition;
}

Partition::~Partition() { tls_partition = previous_; }

// ---- free functions --------------------------------------------------------

const char* task_class_name(TaskClass c) {
  switch (c) {
    case TaskClass::kKernel: return "kernel";
    case TaskClass::kPrefetch: return "prefetch";
    case TaskClass::kDdp: return "ddp";
    case TaskClass::kServe: return "serve";
    case TaskClass::kAnnBuild: return "ann_build";
    case TaskClass::kGeneral: return "general";
    case TaskClass::kNumClasses: break;
  }
  return "unknown";
}

int num_threads() { return TaskPool::instance().threads(); }

}  // namespace sptx::runtime
