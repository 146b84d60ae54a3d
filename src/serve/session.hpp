// Thread-safe inference serving over an immutable model snapshot.
//
// An InferenceSession is the query-side half of the Engine facade: it owns
// a frozen serving snapshot (a versioned model replica plus its optional
// clustered ANN index, serve/ann_index.hpp) and answers
//
//  * triple scoring      — score()/score_one(), routed through a
//    micro-batching queue that coalesces concurrent small queries into one
//    SpMM-sized batch (micro_batcher.hpp);
//  * top-k prediction    — top_tails()/top_heads(): rank every entity as
//    the missing slot of (h, r, ?) / (?, r, t), optionally filtering known
//    positives. With the ANN index engaged the candidate scan shrinks to
//    the probed centroid lists; scores stay exact (bit-identical to brute
//    force) because candidates re-rank through the model's score path.
//  * rank queries        — rank()/rank_batch(): the evaluator's filtered
//    optimistic-average rank of a truth triplet against all entities.
//
// Brute-force top-k and rank queries run the evaluator's own candidate
// scan, filter and rank (eval/candidates.hpp), so a session rank equals
// the eval::evaluate rank of the same triplet and side by construction.
//
// Hot-swap: the snapshot lives behind an RCU-style atomic shared_ptr cell.
// install() flips the cell; each in-flight request resolved the pointer
// once at entry and drains on the version it started with, every new
// request sees the new version, and the old snapshot frees itself when its
// last in-flight reference drops — no locks on the read path, no torn
// state, no dropped requests. Publishing is Engine::publish()'s job (build
// the new index off the serving threads, then install everywhere).
// Hot-swap preserves the vocabulary: install() rejects a snapshot whose
// entity/relation counts differ, which is what keeps request validation
// and the known-triplet filter valid across the flip.
//
// Thread-safety contract: every public method is const and safe to call
// from any number of threads concurrently (install() included). Results
// are independent of concurrency — a query returns bit-identical results
// whether executed alone, coalesced into a shared micro-batch, or raced
// against a thousand others; during a swap every result is consistent with
// exactly one installed version.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "src/common/runtime_config.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/eval/candidates.hpp"
#include "src/kg/known_triplets.hpp"
#include "src/kg/triplet.hpp"
#include "src/models/model.hpp"
#include "src/serve/ann_index.hpp"
#include "src/serve/micro_batcher.hpp"

// Whether the snapshot cell is a std::atomic<std::shared_ptr> (see
// snapshot_ below for why ThreadSanitizer builds use the mutex instead).
#if defined(__cpp_lib_atomic_shared_ptr) && !defined(__SANITIZE_THREAD__)
#define SPTX_ATOMIC_SNAPSHOT_CELL 1
#else
#define SPTX_ATOMIC_SNAPSHOT_CELL 0
#endif

namespace sptx::serve {

struct SessionOptions {
  /// Coalesce concurrent small score() calls into one scoring batch.
  /// SPTX_SERVE_MICROBATCH overrides.
  bool micro_batch = true;
  /// Coalescing cap in triplets per underlying score() call.
  /// SPTX_SERVE_MAX_BATCH overrides.
  index_t max_batch = 8192;
  /// Microseconds a micro-batch leader lingers for followers before
  /// executing. 0 = continuous batching: drain whatever contention already
  /// queued, never add latency. SPTX_SERVE_WINDOW_US overrides.
  int window_us = 0;
  /// Known positives to exclude from top-k results and rank competitors
  /// (the evaluator's "filtered" protocol). Copied at session open — the
  /// store need not outlive the session. Null = unfiltered.
  const TripletStore* filter = nullptr;
  /// Bounded-queue admission control for the micro-batcher, in queued
  /// triplets. Arrivals that would exceed the bound are rejected with
  /// RejectReason::kQueueFull instead of growing the queue (and the tail
  /// latency of everyone behind them) without limit. 0 = unbounded.
  /// SPTX_SERVE_QUEUE_LIMIT overrides.
  index_t queue_limit = 0;
  /// Default per-request deadline for try_score(), in microseconds from
  /// arrival. A request that cannot START scoring before its deadline is
  /// shed with RejectReason::kDeadline — no work is spent on a result the
  /// caller can no longer use. 0 = no deadline. Callers can override per
  /// request. SPTX_SERVE_DEADLINE_US overrides.
  std::int64_t deadline_us = 0;
  /// Cap on simultaneous underlying score() executions — the worker pool
  /// the micro-batch queue feeds. 0 = unbounded (every caller thread may
  /// execute). Bounding it is what lets overload actually queue, so the
  /// deadline and queue-limit degradation engage instead of oversubscribing
  /// the CPU. SPTX_SERVE_CONCURRENCY overrides.
  int max_concurrency = 0;
  /// Clustered ANN acceleration for top_tails/top_heads: kAuto builds and
  /// uses the IVF index when the model family has a probe transform AND
  /// the vocabulary has at least ann_min_entities entities; kOn for any
  /// size (still brute-force when no transform exists); kOff never.
  /// Returned scores are exact in every mode. SPTX_ANN overrides.
  AnnMode ann = AnnMode::kAuto;
  /// Centroid lists probed per ANN query — the recall/latency dial.
  /// 0 = auto (AnnIndex::auto_nprobe). SPTX_ANN_NPROBE overrides.
  int ann_nprobe = 0;
  /// kAuto threshold: below this entity count the brute-force scan wins
  /// (index build + probe overhead beats the scan it saves).
  /// SPTX_ANN_MIN_ENTITIES overrides.
  index_t ann_min_entities = 4096;
};

/// Apply the registry's SPTX_SERVE_* / SPTX_ANN_* overrides to `options`.
SessionOptions resolve(const SessionOptions& options, const RuntimeConfig& rc);

struct Prediction {
  std::int64_t entity = 0;
  float score = 0.0f;
};

struct SessionStats {
  std::int64_t queries = 0;          // public API calls answered
  std::int64_t triplets_scored = 0;  // total candidate/query triplets scored
  std::int64_t rejected = 0;         // try_score() loads shed (all reasons)
  std::int64_t topk_ann = 0;         // top-k queries served via the ANN index
  std::int64_t topk_brute = 0;       // top-k queries served brute-force
  std::int64_t ann_candidates = 0;   // exact-re-rank candidates scanned
  std::int64_t installs = 0;         // hot-swaps applied (install() calls)
  std::uint64_t snapshot_version = 0;  // currently serving version
  MicroBatcher::Stats batcher;       // micro-batch queue traffic
};

/// Outcome of a deadline-aware try_score(): either accepted (scores filled,
/// reason kNone) or a typed rejection with empty scores.
struct ScoreResult {
  RejectReason rejected = RejectReason::kNone;
  std::vector<float> scores;
  bool ok() const { return rejected == RejectReason::kNone; }
};

class InferenceSession {
 public:
  /// `model` must be a frozen snapshot (models::freeze) or otherwise
  /// guaranteed immutable for the session's lifetime. Builds the ANN index
  /// per `options` (version stamped from models::next_snapshot_version).
  InferenceSession(std::shared_ptr<const models::KgeModel> model,
                   const SessionOptions& options);

  /// Serve an already-assembled snapshot (Engine::open_session's path —
  /// the engine stamps the version and builds the index once).
  InferenceSession(std::shared_ptr<const ServingSnapshot> snapshot,
                   const SessionOptions& options);

  /// The snapshot current at this instant (RCU read). Hold the returned
  /// pointer while using anything reached through it.
  std::shared_ptr<const ServingSnapshot> snapshot() const {
    return cell_load();
  }

  /// The current snapshot's model. The reference stays valid only while
  /// the snapshot remains installed — callers that may race a publish
  /// should hold snapshot() instead.
  const models::KgeModel& model() const { return *cell_load()->model; }
  index_t num_entities() const { return cell_load()->model->num_entities(); }
  index_t num_relations() const {
    return cell_load()->model->num_relations();
  }
  std::uint64_t snapshot_version() const { return cell_load()->version; }

  /// RCU-style hot-swap: atomically replace the serving snapshot. Requests
  /// already in flight finish (and drain the old snapshot) on the version
  /// they started with; every subsequent request sees `snapshot`. The new
  /// snapshot must preserve the vocabulary (same entity/relation counts) —
  /// hot-swap publishes refreshed weights, not a re-sized graph.
  void install(std::shared_ptr<const ServingSnapshot> snapshot) const;

  /// Model-native scores for a batch of triplets (lower = more plausible
  /// for translational families, higher for semiring ones — see
  /// model().higher_is_better()). Small batches may be coalesced with
  /// concurrent callers; results are identical either way.
  std::vector<float> score(std::span<const Triplet> batch) const;
  float score_one(const Triplet& t) const;

  /// Graceful-degradation scoring: like score(), but load shedding reports
  /// a typed rejection instead of throwing. `deadline_us` microseconds from
  /// now bounds how long the request may wait to START scoring (0 = the
  /// session's options.deadline_us; both 0 = no deadline). Accepted
  /// requests return bit-identical scores to score() — degradation changes
  /// WHO gets served under overload, never the answer the served get.
  ScoreResult try_score(std::span<const Triplet> batch,
                        std::int64_t deadline_us = 0) const;

  /// The k most plausible completions of (head, relation, ?) — entities
  /// ranked by the model's score (entity id breaks ties), known positives
  /// excluded when the session was opened with a filter. Served through the
  /// ANN index when engaged (exact scores, approximate candidate set),
  /// brute-force otherwise. One pass keeps a k-heap of survivors; only a
  /// candidate that would enter it is looked up in the filter
  /// (Counter::kFilterProbes), so a query costs the scan plus about
  /// k·ln(N/k) lookups instead of N.
  std::vector<Prediction> top_tails(std::int64_t head, std::int64_t relation,
                                    int k) const;
  /// The k most plausible completions of (?, relation, tail).
  std::vector<Prediction> top_heads(std::int64_t relation, std::int64_t tail,
                                    int k) const;

  /// Filtered optimistic-average rank of `truth` against all entities on
  /// one side (the evaluator's protocol: rank = 1 + #strictly-better +
  /// #ties/2, filtered competitors excluded). Always brute-force — ranks
  /// are exact by definition.
  double rank(const Triplet& truth, bool corrupt_tail = true) const;
  /// rank() of every truth, all against the snapshot current at entry.
  std::vector<double> rank_batch(std::span<const Triplet> truths,
                                 bool corrupt_tail = true) const;

  SessionStats stats() const;

 private:
  std::vector<Prediction> top_impl(bool corrupt_tail, std::int64_t anchor,
                                   std::int64_t relation, int k) const;

  /// rank() against one resolved snapshot's model.
  double rank_on(const models::KgeModel& model, const Triplet& truth,
                 bool corrupt_tail) const;

  /// Scores of all N candidates of `query` (eval::score_candidates,
  /// counted in the stats). Candidate batches are already SpMM-sized, so
  /// they bypass the micro-batcher.
  std::vector<float> candidate_scores(const models::KgeModel& model,
                                      const eval::CandidateQuery& query) const;

  /// Serving inputs are user-controlled; ids are range-checked before they
  /// reach the models' unchecked embedding-row arithmetic. The vocabulary
  /// is install-invariant, so validation against any snapshot holds for
  /// all of them.
  void check_triplet(const Triplet& t, index_t num_entities,
                     index_t num_relations) const;

  std::shared_ptr<const ServingSnapshot> cell_load() const;
  void cell_store(std::shared_ptr<const ServingSnapshot> snapshot) const;

  SessionOptions options_;
  kg::KnownTriplets known_;
  // The RCU cell. libstdc++ ≥ 12 provides the lock-free-ish atomic
  // specialization; the mutex fallback keeps older toolchains correct (and
  // carries the guarded-by contract so the fallback is analyzable too).
  // ThreadSanitizer builds take the fallback as well: the specialization
  // locks with a spin bit inside the pointer word, which TSan cannot see,
  // so it reports every store racing a load.
#if SPTX_ATOMIC_SNAPSHOT_CELL
  mutable std::atomic<std::shared_ptr<const ServingSnapshot>> snapshot_;
#else
  mutable Mutex snapshot_mu_;
  mutable std::shared_ptr<const ServingSnapshot> snapshot_
      SPTX_GUARDED_BY(snapshot_mu_);
#endif
  mutable MicroBatcher batcher_;
  mutable std::atomic<std::int64_t> queries_{0};
  mutable std::atomic<std::int64_t> triplets_scored_{0};
  mutable std::atomic<std::int64_t> rejected_{0};
  mutable std::atomic<std::int64_t> topk_ann_{0};
  mutable std::atomic<std::int64_t> topk_brute_{0};
  mutable std::atomic<std::int64_t> ann_candidates_{0};
  mutable std::atomic<std::int64_t> installs_{0};
};

}  // namespace sptx::serve
