// parallel_for over the shared work-stealing TaskPool.
//
// Drop-in successor of the retired src/common/parallel.hpp: same signature,
// same exactly-once contract, same grain semantics (`grain` is both the
// serial cutoff and the chunk size). Two differences:
//
//  * Scheduling runs on runtime::TaskPool (one process-wide view of
//    parallelism; nested regions compose instead of oversubscribing).
//  * Tiny trip counts are guaranteed inline: when n <= grain (or the pool
//    is one lane wide) the body runs on the caller with zero pool
//    round-trips — no task is submitted, no lock is taken, and the
//    kRuntimeInlineLoops counter records the shortcut so tests can assert
//    it stays that way.
#pragma once

#include <algorithm>
#include <cstdint>

#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx::runtime {

/// Parallel loop over [begin, end) with dynamic scheduling: `body(i)` runs
/// exactly once per index. Exceptions from any chunk propagate to the
/// caller after the region quiesces (first one wins). Safe to nest — an
/// inner parallel_for inside a pool task degrades toward serial instead of
/// deadlocking or spawning threads.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, const Body& body,
                  std::int64_t grain = 64) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain || TaskPool::instance().threads() <= 1) {
    profiling::count_event(profiling::Counter::kRuntimeInlineLoops);
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
  TaskPool::instance().run_region(
      begin, end, grain,
      [](void* ctx, std::int64_t i0, std::int64_t i1) {
        const Body& b = *static_cast<const Body*>(ctx);
        for (std::int64_t i = i0; i < i1; ++i) b(i);
      },
      const_cast<void*>(static_cast<const void*>(&body)),
      TaskClass::kKernel);
}

/// Floats per task in parallel_rows: 128 KB of one operand amortises the
/// pool's dispatch cost. An operand no bigger than one task runs inline.
constexpr std::int64_t kRowTaskFloats = std::int64_t{1} << 15;

/// Row-parallel loop over an rows×cols operand: `body(i)` runs exactly once
/// per row, rows grouped into tasks of about kRowTaskFloats floats. For
/// per-row kernels with independent rows, where the split changes no
/// arithmetic.
template <typename Body>
void parallel_rows(std::int64_t rows, std::int64_t cols, const Body& body) {
  const std::int64_t per_task = std::max<std::int64_t>(
      1, kRowTaskFloats / std::max<std::int64_t>(cols, 1));
  parallel_for(
      0, (rows + per_task - 1) / per_task,
      [&](std::int64_t chunk) {
        const std::int64_t end = std::min(rows, (chunk + 1) * per_task);
        for (std::int64_t i = chunk * per_task; i < end; ++i) body(i);
      },
      /*grain=*/1);
}

}  // namespace sptx::runtime
