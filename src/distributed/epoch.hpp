// The DDP epoch schedule, written once and run by both executors: the
// threaded one (ddp.cpp) and the multi-process one (proc_ddp.cpp, in the
// supervisor and in every worker process). EpochPlan walks an epoch's
// batches, compute_shard runs one shard, run_missing_shards recovers,
// reduce_shards all-reduces and apply_step steps; RunLog keeps the run's
// books. Shards reduce in shard-index order, so WHO computed a shard (which
// thread, which process, a recovery re-run) never changes a bit — the
// anchor of both executors' bit-identity.
//
// Fault sites are not here: each executor's worker loop owns its own
// (`ddp_worker` in threads mode, `ddp_proc_kill` in worker processes), so
// a recovery re-run through compute_shard can never trip them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/distributed/ddp.hpp"
#include "src/kg/negative_sampler.hpp"
#include "src/models/model.hpp"
#include "src/profiling/counters.hpp"
#include "src/profiling/timer.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/sparse/row_support.hpp"

namespace sptx::distributed {

/// One parameter's gradient contribution from one shard. Sparse when the
/// parameter is entity/relation-indexed (only the rows in the shard's
/// incidence support, which is the entire nonzero set), dense otherwise.
struct ParamGrad {
  bool present = false;
  bool dense = false;
  std::vector<index_t> rows;  // sorted touched rows (sparse form)
  Matrix values;              // rows.size()×cols, or the full matrix (dense)
};
using ShardGrads = std::vector<ParamGrad>;

/// One model replica plus the compiled-batch machinery around it. The
/// threads executor holds one per worker; the procs supervisor (its
/// master) and every worker process hold exactly one.
struct Replica {
  std::unique_ptr<models::KgeModel> model;
  models::ScoringCoreModel* scoring = nullptr;  // nullptr: span fallback
  std::vector<autograd::Variable> params;
  std::vector<models::ParamIndexSpace> spaces;
  sparse::ScoringRecipe recipe;
  std::unique_ptr<sparse::PlanCache> cache;  // nullptr = caching off
  bool support_verified = false;
  bool constrained_all = false;  // post_step has covered every row

  /// Take ownership of `m` and materialise every gradient buffer (zeroed)
  /// so the harvest/reduce cycle never races lazy allocation.
  void init(std::unique_ptr<models::KgeModel> m, bool use_cache);

  /// post_step over the batch's touched rows — over every row the first
  /// time, as the single-process trainer does.
  void post_step(const sparse::RowSupport& touched);
};

/// The current batch of an EpochPlan.
struct Batch {
  std::int64_t ordinal = -1;       // position in the epoch
  index_t shard_size = 0;
  index_t num_shards = 0;
  index_t shard_ordinal_base = 0;  // global index of shard 0 (cache key)
  std::span<const Triplet> pos;
  std::vector<Triplet> neg;        // one pregenerated negative per positive
  sparse::RowSupport touched;      // rows of pos ∪ neg: the step's support

  index_t count() const { return static_cast<index_t>(pos.size()); }
};

/// Check `res` against `data` and return the run's shard size:
/// res.shard_size, or ceil(batch_size / workers) when it is 0.
index_t checked_shard_size(const DdpConfig& res,
                           const kg::TripletSource& data);

/// One epoch's batches. Re-seeding per epoch pins the negatives to the
/// epoch-0 stream — the paper's pregenerate-once protocol without an
/// O(dataset) buffer, and the property that lets cached shard plans serve
/// every later epoch. Every process walks every batch (even one it owns no
/// shard of) so the RNG stream advances identically everywhere.
class EpochPlan {
 public:
  EpochPlan(const kg::TripletSource& data, index_t batch_size,
            index_t shard_size, std::uint64_t seed);

  /// Advance to the next batch; false once the epoch is exhausted.
  bool next();
  const Batch& batch() const { return batch_; }

 private:
  const kg::TripletSource& data_;
  index_t batch_size_;
  kg::NegativeSampler sampler_;
  Rng rng_;
  index_t begin_ = 0;
  Batch batch_;
};

/// Per-batch shard results, indexed by shard; an empty ShardGrads is a
/// shard nobody has delivered yet.
struct ShardResults {
  std::vector<ShardGrads> grads;
  std::vector<float> loss;

  explicit ShardResults(index_t num_shards)
      : grads(static_cast<std::size_t>(num_shards)),
        loss(static_cast<std::size_t>(num_shards), 0.0f) {}
};

/// Forward + backward + harvest of shard `s` of `batch` on `rep`: plan
/// lookup or compile, the loss scaled by the shard's share of the batch
/// BEFORE backward (so the reduced gradient is exactly the full-batch mean
/// even when shard_size does not divide the batch), and the one-time
/// support check. Leaves `rep`'s gradient buffers zero. Returns the
/// weighted loss; `out` is written only when the shard succeeds, so a
/// shard that throws stays missing for run_missing_shards.
float compute_shard(Replica& rep, const Batch& batch, index_t s,
                    ShardGrads& out);

/// Run every shard still missing from `shards` on `rep`; returns how many
/// ran.
index_t run_missing_shards(Replica& rep, const Batch& batch,
                           ShardResults& shards);

/// Accumulate every shard into `into`'s (all-zero) gradient buffers in
/// shard-index order, touched rows only, counting kDdpAllReduceRows /
/// kDdpDenseReduces. Returns the batch loss (summed in shard order).
float reduce_shards(const ShardResults& shards, Replica& into);

/// Step every replica by -lr × replicas[0]'s gradient over the rows of
/// `touched` (a whole-matrix axpy for dense parameters), clear those
/// gradient rows, then post_step each replica.
void apply_step(std::span<Replica> replicas,
                const sparse::RowSupport& touched, float lr);

/// Run-level bookkeeping shared by both executors. Constructed at the
/// start of a run; its counter windows cover everything until finish().
class RunLog {
 public:
  /// Records the resolved worker count and shard size in `result`.
  RunLog(const DdpConfig& res, index_t shard_size, DdpResult& result);

  /// Restore replicas[0] from res.resume_from (a `.ep<N>` file, or a base
  /// path whose newest rotation wins), copy it into the other replicas and
  /// return the epoch to continue from; 0 without a resume source. DDP
  /// epochs are self-contained, so parameters + epoch cursor reproduce the
  /// uninterrupted trajectory exactly.
  int resume(std::span<Replica> replicas);

  void begin_epoch();
  void add_batch(float loss) {
    loss_sum_ += loss;
    ++batches_;
  }
  /// Record the epoch's mean loss and time, fire on_epoch, and write the
  /// rotated checkpoint of `model` when one is due.
  void end_epoch(int epoch, models::KgeModel& model);

  /// Close the counter windows into the result, report each replica's
  /// plan-cache traffic, and hand replicas[0]'s model over.
  void finish(std::span<Replica> replicas);

 private:
  const DdpConfig& res_;
  DdpResult& result_;
  profiling::CounterWindow shards_{profiling::Counter::kDdpShards};
  profiling::CounterWindow rows_{profiling::Counter::kDdpAllReduceRows};
  profiling::CounterWindow dense_{profiling::Counter::kDdpDenseReduces};
  profiling::CounterWindow builds_{profiling::Counter::kIncidenceBuilds};
  profiling::clock::time_point t0_ = profiling::clock::now();
  double loss_sum_ = 0.0;
  index_t batches_ = 0;
};

/// Save `model` to `<checkpoint_path>.abort` (when a path is configured)
/// and return the "; parameters flushed to ..." clause for the abort error.
std::string flush_abort(const DdpConfig& res, models::KgeModel& model);

}  // namespace sptx::distributed
