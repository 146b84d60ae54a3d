#include "src/serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/fault.hpp"
#include "src/models/snapshot.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::serve {

SessionOptions resolve(const SessionOptions& options,
                       const RuntimeConfig& rc) {
  SessionOptions resolved = options;
  resolved.micro_batch =
      rc.flag_or("SPTX_SERVE_MICROBATCH", options.micro_batch);
  resolved.max_batch = static_cast<index_t>(
      rc.int_or("SPTX_SERVE_MAX_BATCH", options.max_batch));
  resolved.window_us =
      static_cast<int>(rc.int_or("SPTX_SERVE_WINDOW_US", options.window_us));
  resolved.queue_limit = static_cast<index_t>(
      rc.int_or("SPTX_SERVE_QUEUE_LIMIT", options.queue_limit));
  resolved.deadline_us = rc.int_or("SPTX_SERVE_DEADLINE_US",
                                   options.deadline_us);
  resolved.max_concurrency = static_cast<int>(
      rc.int_or("SPTX_SERVE_CONCURRENCY", options.max_concurrency));
  const std::string ann = rc.value_or("SPTX_ANN", "");
  if (!ann.empty()) resolved.ann = parse_ann_mode(ann);
  resolved.ann_nprobe = static_cast<int>(
      rc.int_or("SPTX_ANN_NPROBE", options.ann_nprobe));
  resolved.ann_min_entities = static_cast<index_t>(
      rc.int_or("SPTX_ANN_MIN_ENTITIES", options.ann_min_entities));
  return resolved;
}

InferenceSession::InferenceSession(
    std::shared_ptr<const models::KgeModel> model,
    const SessionOptions& options)
    : InferenceSession(
          make_serving_snapshot(std::move(model), options.ann,
                                options.ann_min_entities,
                                models::next_snapshot_version()),
          options) {}

InferenceSession::InferenceSession(
    std::shared_ptr<const ServingSnapshot> snapshot,
    const SessionOptions& options)
    : options_(options),
      snapshot_(std::move(snapshot)),
      batcher_(
          // Resolved at EXECUTION time, not capture time: a coalesced batch
          // scores against exactly one snapshot — the one current when the
          // leader executes — never half-old, half-new.
          [this](std::span<const Triplet> batch) {
            return cell_load()->model->score(batch);
          },
          std::max<index_t>(options.max_batch, 1),
          std::chrono::microseconds(std::max(options.window_us, 0)),
          std::max<index_t>(options.queue_limit, 0),
          std::max(options.max_concurrency, 0)) {
  const auto snap = cell_load();
  SPTX_CHECK(snap != nullptr && snap->model != nullptr,
             "InferenceSession needs a model snapshot");
  if (options_.filter != nullptr) {
    known_ = kg::KnownTriplets(
        snap->model->num_entities(), snap->model->num_relations(),
        static_cast<std::size_t>(options_.filter->size()));
    known_.add(options_.filter->triplets());
    options_.filter = nullptr;  // copied; never keep the caller's pointer
  }
}

std::shared_ptr<const ServingSnapshot> InferenceSession::cell_load() const {
#if SPTX_ATOMIC_SNAPSHOT_CELL
  return snapshot_.load(std::memory_order_acquire);
#else
  MutexLock lock(snapshot_mu_);
  return snapshot_;
#endif
}

void InferenceSession::cell_store(
    std::shared_ptr<const ServingSnapshot> snapshot) const {
#if SPTX_ATOMIC_SNAPSHOT_CELL
  snapshot_.store(std::move(snapshot), std::memory_order_release);
#else
  MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
#endif
}

void InferenceSession::install(
    std::shared_ptr<const ServingSnapshot> snapshot) const {
  SPTX_CHECK(snapshot != nullptr && snapshot->model != nullptr,
             "install() needs a model snapshot");
  const auto current = cell_load();
  SPTX_CHECK(snapshot->model->num_entities() ==
                     current->model->num_entities() &&
                 snapshot->model->num_relations() ==
                     current->model->num_relations(),
             "hot-swap must preserve the vocabulary: serving "
                 << current->model->num_entities() << "x"
                 << current->model->num_relations() << ", installing "
                 << snapshot->model->num_entities() << "x"
                 << snapshot->model->num_relations());
  cell_store(std::move(snapshot));
  installs_.fetch_add(1, std::memory_order_relaxed);
}

void InferenceSession::check_triplet(const Triplet& t, index_t num_entities,
                                     index_t num_relations) const {
  SPTX_CHECK(t.head >= 0 && t.head < num_entities && t.tail >= 0 &&
                 t.tail < num_entities && t.relation >= 0 &&
                 t.relation < num_relations,
             "triplet out of range: (" << t.head << ", " << t.relation
                                       << ", " << t.tail << ") vs "
                                       << num_entities << " entities / "
                                       << num_relations << " relations");
}

std::vector<float> InferenceSession::score(
    std::span<const Triplet> batch) const {
  const auto snap = cell_load();
  const index_t n = snap->model->num_entities();
  const index_t r = snap->model->num_relations();
  for (const Triplet& t : batch) check_triplet(t, n, r);
  queries_.fetch_add(1, std::memory_order_relaxed);
  triplets_scored_.fetch_add(static_cast<std::int64_t>(batch.size()),
                             std::memory_order_relaxed);
  // SpMM-sized requests gain nothing from coalescing; score them directly.
  if (!options_.micro_batch ||
      static_cast<index_t>(batch.size()) >= options_.max_batch)
    return snap->model->score(batch);
  std::vector<float> out(batch.size());
  batcher_.execute(batch, out.data());
  return out;
}

float InferenceSession::score_one(const Triplet& t) const {
  return score(std::span<const Triplet>(&t, 1))[0];
}

ScoreResult InferenceSession::try_score(std::span<const Triplet> batch,
                                        std::int64_t deadline_us) const {
  // Resolve the deadline FIRST: admission control is measured from arrival,
  // before validation or queueing costs anything.
  if (deadline_us <= 0) deadline_us = options_.deadline_us;
  const MicroBatcher::Deadline deadline =
      deadline_us > 0 ? std::chrono::steady_clock::now() +
                            std::chrono::microseconds(deadline_us)
                      : MicroBatcher::kNoDeadline;

  const auto snap = cell_load();
  const index_t n = snap->model->num_entities();
  const index_t r = snap->model->num_relations();
  for (const Triplet& t : batch) check_triplet(t, n, r);
  ScoreResult result;
  if (batch.empty()) return result;
  queries_.fetch_add(1, std::memory_order_relaxed);

  // SpMM-sized requests and micro-batch-off sessions score directly — there
  // is no queue to wait in, so only a dead-on-arrival deadline (or an
  // injected serve_queue fault) can shed them.
  if (!options_.micro_batch ||
      static_cast<index_t>(batch.size()) >= options_.max_batch) {
    if (fault::should_fail("serve_queue")) {
      result.rejected = RejectReason::kQueueFull;
    } else if (deadline != MicroBatcher::kNoDeadline &&
               std::chrono::steady_clock::now() >= deadline) {
      result.rejected = RejectReason::kDeadline;
    } else {
      result.scores = snap->model->score(batch);
      triplets_scored_.fetch_add(static_cast<std::int64_t>(batch.size()),
                                 std::memory_order_relaxed);
      return result;
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  std::vector<float> out(batch.size());
  result.rejected = batcher_.try_execute(batch, out.data(), deadline);
  if (result.rejected == RejectReason::kNone) {
    result.scores = std::move(out);
    triplets_scored_.fetch_add(static_cast<std::int64_t>(batch.size()),
                               std::memory_order_relaxed);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

std::vector<float> InferenceSession::candidate_scores(
    const models::KgeModel& model, const eval::CandidateQuery& query) const {
  triplets_scored_.fetch_add(model.num_entities(), std::memory_order_relaxed);
  return eval::score_candidates(model, query);
}

namespace {

/// Filtered top-k selection in one pass over the candidates. A k-heap keeps
/// the best survivors so far, worst on top, ordered by score in the model's
/// direction with the entity id as tie-break. A candidate that cannot enter
/// the heap is dropped unprobed; only one that would enter it is looked up
/// in the filter. The order is strict and total over distinct ids, so input
/// order never matters: the ANN path (candidates in probe order) and the
/// brute path (id order) agree exactly on identical candidate sets, and
/// both equal filtering every candidate first and sorting.
class FilteredTopK {
 public:
  FilteredTopK(int k, bool higher_is_better, const kg::KnownTriplets& known,
               const eval::CandidateQuery& query)
      : k_(static_cast<std::size_t>(std::max(k, 0))),
        better_{higher_is_better},
        known_(known),
        query_(query) {}

  /// Empty the heap (a widened ANN probe re-offers every candidate);
  /// probes() keeps counting.
  void clear() { heap_.clear(); }

  void offer(std::int64_t entity, float score) {
    const Prediction p{entity, score};
    if (full() && (k_ == 0 || !better_(p, heap_.front()))) return;
    ++probes_;
    if (known_.contains(query_.candidate(entity))) return;
    if (full()) {
      std::pop_heap(heap_.begin(), heap_.end(), better_);
      heap_.back() = p;
    } else {
      heap_.push_back(p);
    }
    std::push_heap(heap_.begin(), heap_.end(), better_);
  }

  bool full() const { return heap_.size() == k_; }
  std::int64_t probes() const { return probes_; }

  /// The survivors, best first.
  std::vector<Prediction> take() {
    std::sort_heap(heap_.begin(), heap_.end(), better_);
    return std::move(heap_);
  }

 private:
  struct Better {
    bool higher_is_better;
    bool operator()(const Prediction& a, const Prediction& b) const {
      if (a.score != b.score)
        return higher_is_better ? a.score > b.score : a.score < b.score;
      return a.entity < b.entity;
    }
  };

  std::size_t k_;
  Better better_;
  const kg::KnownTriplets& known_;
  eval::CandidateQuery query_;
  std::vector<Prediction> heap_;
  std::int64_t probes_ = 0;
};

}  // namespace

std::vector<Prediction> InferenceSession::top_impl(bool corrupt_tail,
                                                   std::int64_t anchor,
                                                   std::int64_t relation,
                                                   int k) const {
  // One snapshot resolution per request: everything below — probe, re-rank
  // or brute scan, stats — sees exactly this version.
  const auto snap = cell_load();
  const models::KgeModel& model = *snap->model;
  SPTX_CHECK(anchor >= 0 && anchor < model.num_entities(),
             "entity id " << anchor << " out of range");
  SPTX_CHECK(relation >= 0 && relation < model.num_relations(),
             "relation id " << relation << " out of range");
  queries_.fetch_add(1, std::memory_order_relaxed);
  const eval::CandidateQuery query{corrupt_tail, anchor, relation};

  FilteredTopK top(k, model.higher_is_better(), known_, query);
  const auto support =
      (options_.ann != AnnMode::kOff && snap->ann) ? model.ann_support()
                                                   : std::nullopt;
  if (support) {
    // ANN path: compose the probe query, scan the top-nprobe centroid
    // lists, exact-re-rank the candidate union through score().
    const AnnIndex& ann = *snap->ann;
    std::vector<float> q(static_cast<std::size_t>(support->table->cols()));
    model.ann_query(corrupt_tail, anchor, relation, q.data());
    const AnnIndex::Probe probe{
        support->norm, support->inner_product,
        support->probe_weights != nullptr ? support->probe_weights->row(relation)
                                          : nullptr};
    const int nprobe = options_.ann_nprobe > 0
                           ? options_.ann_nprobe
                           : AnnIndex::auto_nprobe(ann.k_lists());
    std::vector<index_t> ids;
    // The filter can reject most of the nearest lists' members: re-probe
    // twice as wide until the heap fills or every list is scanned.
    for (int lists = nprobe;;) {
      const int probed = ann.probe(q.data(), probe, lists,
                                   static_cast<index_t>(std::max(k, 0)), ids);
      const std::vector<float> scores =
          eval::score_candidates(model, query, ids);
      triplets_scored_.fetch_add(static_cast<std::int64_t>(ids.size()),
                                 std::memory_order_relaxed);
      ann_candidates_.fetch_add(static_cast<std::int64_t>(ids.size()),
                                std::memory_order_relaxed);
      profiling::count_event(profiling::Counter::kAnnCandidates,
                             static_cast<std::int64_t>(ids.size()));
      top.clear();
      for (std::size_t i = 0; i < ids.size(); ++i) top.offer(ids[i], scores[i]);
      if (top.full() || probed >= ann.k_lists()) break;
      lists = 2 * probed;
    }
    topk_ann_.fetch_add(1, std::memory_order_relaxed);
    profiling::count_event(profiling::Counter::kAnnTopkQueries);
  } else {
    const std::vector<float> scores = candidate_scores(model, query);
    topk_brute_.fetch_add(1, std::memory_order_relaxed);
    profiling::count_event(profiling::Counter::kAnnBruteTopkQueries);
    for (std::size_t e = 0; e < scores.size(); ++e)
      top.offer(static_cast<std::int64_t>(e), scores[e]);
  }
  profiling::count_event(profiling::Counter::kFilterProbes, top.probes());
  return top.take();
}

std::vector<Prediction> InferenceSession::top_tails(std::int64_t head,
                                                    std::int64_t relation,
                                                    int k) const {
  return top_impl(true, head, relation, k);
}

std::vector<Prediction> InferenceSession::top_heads(std::int64_t relation,
                                                    std::int64_t tail,
                                                    int k) const {
  return top_impl(false, tail, relation, k);
}

double InferenceSession::rank(const Triplet& truth, bool corrupt_tail) const {
  return rank_on(*cell_load()->model, truth, corrupt_tail);
}

std::vector<double> InferenceSession::rank_batch(
    std::span<const Triplet> truths, bool corrupt_tail) const {
  // One snapshot for the whole batch: a publish mid-batch must not answer
  // its first truths from one version and the rest from the next.
  const auto snap = cell_load();
  std::vector<double> out;
  out.reserve(truths.size());
  for (const Triplet& t : truths)
    out.push_back(rank_on(*snap->model, t, corrupt_tail));
  return out;
}

double InferenceSession::rank_on(const models::KgeModel& model,
                                 const Triplet& truth,
                                 bool corrupt_tail) const {
  // Both sides index into the candidate scores.
  check_triplet(truth, model.num_entities(), model.num_relations());
  queries_.fetch_add(1, std::memory_order_relaxed);
  const eval::CandidateQuery query{corrupt_tail,
                                   corrupt_tail ? truth.head : truth.tail,
                                   truth.relation};
  return eval::filtered_rank(candidate_scores(model, query), query,
                             corrupt_tail ? truth.tail : truth.head,
                             model.higher_is_better(), known_);
}

SessionStats InferenceSession::stats() const {
  SessionStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.triplets_scored = triplets_scored_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.topk_ann = topk_ann_.load(std::memory_order_relaxed);
  s.topk_brute = topk_brute_.load(std::memory_order_relaxed);
  s.ann_candidates = ann_candidates_.load(std::memory_order_relaxed);
  s.installs = installs_.load(std::memory_order_relaxed);
  s.snapshot_version = cell_load()->version;
  s.batcher = batcher_.stats();
  return s;
}

}  // namespace sptx::serve
