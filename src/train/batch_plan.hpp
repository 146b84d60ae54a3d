// Batch-plan compilation — the trainer's plan stage.
//
// A training epoch is a fixed schedule of (positive, negative) batch pairs.
// Compiling one pair means staging its triplets (applying the epoch's pair
// permutation and the k-way negative tiling once, instead of re-copying
// them every batch of every epoch) and pre-building every incidence matrix
// the model's ScoringRecipe names. Compilation consumes only plain data —
// the triplet store, a negatives snapshot, a permutation — never the model's
// weights or the run's RNG, so the trainer runs it as a kPrefetch pool task
// one batch ahead: batch b+1 compiles while batch b executes.
//
// Plans flow through a sparse::PlanCache keyed by batch ordinal: when the
// batch composition is epoch-invariant (no shuffle, no negative resampling)
// every epoch after the first is served entirely from cache — zero incidence
// rebuilds, asserted by tests/test_batch_plan.cpp via the profiling
// counters. Shuffle or resampling compile every batch afresh.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/kg/triplet.hpp"
#include "src/kg/triplet_source.hpp"
#include "src/sparse/plan_cache.hpp"

namespace sptx::train {

/// One compiled (positive, negative) batch pair, ready for forward/backward.
struct BatchPlan {
  std::shared_ptr<const sparse::CompiledBatch> pos;
  std::shared_ptr<const sparse::CompiledBatch> neg;

  /// Heap bytes the pair holds (CompiledBatch::bytes of both sides).
  std::int64_t bytes() const;
};

/// The inputs one epoch's compilation consumes. All RNG-driven state (the
/// permutation, refreshed negatives) is produced by the caller on the
/// driving thread, which keeps the RNG stream identical whether the compile
/// runs inline or as a pool task. Spans must outlive the compiled plans
/// unless staging copies them (shuffle or k > 1 always stage).
struct EpochBatchSource {
  /// Positives — an in-memory store or an mmap'd streaming store; batches
  /// compile from zero-copy slices either way.
  kg::TripletSource data;
  /// Pre-generated negatives, repetition-major: entry rep·|data| + i
  /// corrupts positive i (NegativeSampler::pregenerate_k layout).
  std::span<const Triplet> negatives;
  /// Pair permutation applied this epoch; empty means identity order.
  std::span<const index_t> positions;
  int k = 1;  // negatives per positive
  index_t batch_size = 0;
  /// Vocabulary the incidence matrices index — the model's, so an id the
  /// model has no row for fails the compile. 0 takes the store's.
  index_t num_entities = 0;
  index_t num_relations = 0;

  /// Batches per epoch: ⌈|data| / batch_size⌉.
  index_t num_batches() const;
};

/// Compile batch `ordinal` of the epoch `source` describes. Served through
/// `cache` (keyed 2·ordinal for positives, 2·ordinal+1 for negatives) when
/// non-null; the caller invalidates the cache whenever the schedule
/// changed (the trainer passes none for a varying schedule).
BatchPlan compile_batch_plan(const EpochBatchSource& source,
                             const sparse::ScoringRecipe& recipe,
                             index_t ordinal, sparse::PlanCache* cache);

/// Compile every batch of one epoch: compile_batch_plan over each ordinal.
std::vector<BatchPlan> compile_epoch_plans(const EpochBatchSource& source,
                                           const sparse::ScoringRecipe& recipe,
                                           sparse::PlanCache* cache);

}  // namespace sptx::train
