// Structural-event counters for the plan-compilation pipeline.
//
// flops.hpp counts arithmetic; this header counts *events*: incidence-matrix
// builds, batch-plan compilations, plan-cache hits and invalidations. The
// counters let tests and benches assert cache behaviour directly — e.g. that
// a shuffle-free training run performs zero incidence rebuilds after the
// first epoch — instead of inferring it from timings. Same design as the
// FLOP counter: one relaxed atomic add per event, negligible next to the
// work being counted.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sptx::profiling {

enum class Counter : int {
  kIncidenceBuilds = 0,   // incidence/selection CSR builder invocations
  kPlanCompiles,          // CompiledBatch compilations
  kPlanCacheHits,         // plans served from a PlanCache
  kPlanInvalidations,     // PlanCache::invalidate calls that dropped entries
  kDdpShards,             // worker shard gradient computations (distributed)
  kDdpAllReduceRows,      // embedding rows moved through the sparse all-reduce
  kDdpDenseReduces,       // parameters that fell back to a dense all-reduce
  kFusedBatches,          // forwards served by the fused kernel layer
  kAnnIndexBuilds,        // IVF clustered-index constructions (serve/ann)
  kAnnTopkQueries,        // top-k queries answered through the ANN index
  kAnnBruteTopkQueries,   // top-k queries answered by the brute-force scan
  kAnnCandidates,         // exact-re-rank candidates scored by ANN queries
  kRuntimeTasksSubmitted,   // tasks + region tickets queued on the TaskPool
  kRuntimeTasksExecuted,    // tasks + tickets consumed by a pool lane
  kRuntimeTasksStolen,      // never incremented: the pool has one queue
  kRuntimeChunksExecuted,   // parallel-region chunks run (any lane)
  kRuntimeParallelRegions,  // parallel_for regions that engaged the pool
  kRuntimeInlineLoops,      // parallel_for calls run inline (n <= grain)
  kDdpProcSpawns,           // worker processes fork/exec'd by the supervisor
  kDdpProcRespawns,         // lost workers respawned from a checkpoint
  kDdpProcWorkersLost,      // worker processes declared dead (exit/heartbeat)
  kDdpProcHeartbeats,       // heartbeat frames received by the supervisor
  kDdpTransportFrames,      // frames moved over the UDS/shm transport
  kDdpTransportBytes,       // payload bytes moved over the transport
  kDdpTransportRetries,     // frame sends retried after a (injected) drop
  kFilterProbes,            // known-triplet filter lookups by rank / top-k
  kNumCounters,
};

/// Stable human-readable names, index-aligned with the Counter enum. Every
/// enumerator (except the kNumCounters sentinel) MUST have an entry here —
/// tools/sptx_lint.py cross-checks the two lists, and the health surface
/// prints counters by these names.
inline constexpr const char* kCounterNames[] = {
    "incidence_builds",        // kIncidenceBuilds
    "plan_compiles",           // kPlanCompiles
    "plan_cache_hits",         // kPlanCacheHits
    "plan_invalidations",      // kPlanInvalidations
    "ddp_shards",              // kDdpShards
    "ddp_allreduce_rows",      // kDdpAllReduceRows
    "ddp_dense_reduces",       // kDdpDenseReduces
    "fused_batches",           // kFusedBatches
    "ann_index_builds",        // kAnnIndexBuilds
    "ann_topk_queries",        // kAnnTopkQueries
    "ann_brute_topk_queries",  // kAnnBruteTopkQueries
    "ann_candidates",          // kAnnCandidates
    "runtime_tasks_submitted",   // kRuntimeTasksSubmitted
    "runtime_tasks_executed",    // kRuntimeTasksExecuted
    "runtime_tasks_stolen",      // kRuntimeTasksStolen
    "runtime_chunks_executed",   // kRuntimeChunksExecuted
    "runtime_parallel_regions",  // kRuntimeParallelRegions
    "runtime_inline_loops",      // kRuntimeInlineLoops
    "ddp_proc_spawns",           // kDdpProcSpawns
    "ddp_proc_respawns",         // kDdpProcRespawns
    "ddp_proc_workers_lost",     // kDdpProcWorkersLost
    "ddp_proc_heartbeats",       // kDdpProcHeartbeats
    "ddp_transport_frames",      // kDdpTransportFrames
    "ddp_transport_bytes",       // kDdpTransportBytes
    "ddp_transport_retries",     // kDdpTransportRetries
    "filter_probes",             // kFilterProbes
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
                  static_cast<std::size_t>(Counter::kNumCounters),
              "kCounterNames must stay index-aligned with the Counter enum: "
              "add the name in the same position as the new enumerator");

/// The stable name of `c` ("plan_cache_hits", ...).
inline const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

namespace detail {
inline std::atomic<std::int64_t>& counter_cell(Counter c) {
  static std::array<std::atomic<std::int64_t>,
                    static_cast<std::size_t>(Counter::kNumCounters)>
      cells{};
  return cells[static_cast<std::size_t>(c)];
}
}  // namespace detail

/// Record `n` occurrences of event `c`.
inline void count_event(Counter c, std::int64_t n = 1) {
  detail::counter_cell(c).fetch_add(n, std::memory_order_relaxed);
}

/// Total events recorded since process start / last reset.
inline std::int64_t counter_value(Counter c) {
  return detail::counter_cell(c).load(std::memory_order_relaxed);
}

inline void reset_counter(Counter c) {
  detail::counter_cell(c).store(0, std::memory_order_relaxed);
}

/// RAII window: counter_value(c) relative to construction (like FlopWindow).
class CounterWindow {
 public:
  explicit CounterWindow(Counter c) : counter_(c), start_(counter_value(c)) {}
  std::int64_t elapsed() const { return counter_value(counter_) - start_; }

 private:
  Counter counter_;
  std::int64_t start_;
};

}  // namespace sptx::profiling
