#include "src/serve/micro_batcher.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx::serve {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kQueueFull: return "queue_full";
  }
  return "unknown";
}

MicroBatcher::MicroBatcher(ScoreFn score, index_t max_batch,
                           std::chrono::microseconds window,
                           index_t queue_limit, int max_concurrent)
    : score_(std::move(score)),
      max_batch_(max_batch),
      window_(window),
      queue_limit_(queue_limit),
      max_concurrent_(max_concurrent) {
  SPTX_CHECK(score_ != nullptr, "MicroBatcher needs a scorer");
  SPTX_CHECK(max_batch_ >= 1, "max_batch must be >= 1");
  SPTX_CHECK(queue_limit_ >= 0, "queue_limit must be >= 0 (0 = unbounded)");
  SPTX_CHECK(max_concurrent_ >= 0,
             "max_concurrent must be >= 0 (0 = unbounded)");
}

void MicroBatcher::execute(std::span<const Triplet> triplets, float* out) {
  const RejectReason reject = try_execute(triplets, out, kNoDeadline);
  if (reject == RejectReason::kQueueFull)
    throw_error(ErrorCode::kQueueFull,
                "serving queue is at capacity — request rejected");
  // kDeadline is impossible with kNoDeadline.
  SPTX_CHECK(reject == RejectReason::kNone, "unexpected rejection");
}

RejectReason MicroBatcher::try_execute(std::span<const Triplet> triplets,
                                       float* out, Deadline deadline) {
  if (triplets.empty()) return RejectReason::kNone;
  Request req{triplets, out, deadline};
  const auto size = static_cast<index_t>(triplets.size());

  MutexLock lk(mu_);
  // Admission control, all under the one lock: an injected serve_queue
  // fault, a dead-on-arrival deadline, or a bounded queue at capacity each
  // bounce the request before it costs anything.
  if (fault::should_fail("serve_queue")) {
    ++stats_.rejected_queue_full;
    return RejectReason::kQueueFull;
  }
  if (deadline != kNoDeadline && std::chrono::steady_clock::now() >= deadline) {
    ++stats_.rejected_deadline;
    return RejectReason::kDeadline;
  }
  if (queue_limit_ > 0 && queued_triplets_ + size > queue_limit_) {
    ++stats_.rejected_queue_full;
    return RejectReason::kQueueFull;
  }
  queue_.push_back(&req);
  queued_triplets_ += size;
  ++stats_.requests;
  stats_.triplets += size;
  cv_.notify_all();  // a lingering leader may now be full enough to run

  // Leader/follower loop. A caller leaves only when its own request is
  // done; becoming leader (possibly for a batch that does not contain its
  // own request, when a previous leader already took it) loops back here
  // afterwards to wait for whoever is executing it. Leadership requires a
  // non-empty queue: a caller whose request is mid-execution elsewhere must
  // not claim an empty queue and spin draining nothing.
  //
  // Degradation: a deadlined request that nobody has taken by its deadline
  // removes itself from the queue (or is shed by a draining leader — see
  // below) and reports kDeadline. Once `taken` is set the request is
  // guaranteed to execute, so the deadline stops applying.
  while (!req.done) {
    if (!can_lead()) {
      if (req.taken || req.deadline == kNoDeadline) {
        while (!req.done && !can_lead()) cv_.wait(mu_);
      } else {
        bool woke = true;
        while (!req.done && !req.taken && !can_lead()) {
          if (cv_.wait_until(mu_, req.deadline) == std::cv_status::timeout) {
            woke = req.done || req.taken || can_lead();
            break;
          }
        }
        if (!woke && !req.done && !req.taken) {
          // Expired while queued: withdraw and shed the load.
          auto it = std::find(queue_.begin(), queue_.end(), &req);
          SPTX_CHECK(it != queue_.end(), "expired request not in queue");
          queue_.erase(it);
          queued_triplets_ -= size;
          ++stats_.rejected_deadline;
          return RejectReason::kDeadline;
        }
      }
      continue;
    }
    leader_active_ = true;

    // Optional linger: give followers `window_` to pile in, cut short the
    // moment a full batch is queued. window 0 skips straight to the drain —
    // continuous batching, coalescing only what contention already queued.
    if (window_.count() > 0 && queued_triplets_ < max_batch_) {
      const auto linger = std::chrono::steady_clock::now() + window_;
      while (queued_triplets_ < max_batch_)
        if (cv_.wait_until(mu_, linger) == std::cv_status::timeout) break;
    }

    // Drain up to max_batch_ triplets in arrival order, shedding requests
    // whose deadline already passed — too late to start scoring them, and
    // skipping them is precisely the useful work the deadline buys under
    // overload. The first live request is always taken, even when it alone
    // exceeds the cap — the cap bounds coalescing, not request size.
    std::vector<Request*> batch;
    index_t total = 0;
    bool shed = false;
    const auto now = std::chrono::steady_clock::now();
    while (!queue_.empty()) {
      Request* r = queue_.front();
      const auto r_size = static_cast<index_t>(r->triplets.size());
      if (r->deadline != kNoDeadline && now >= r->deadline) {
        queue_.pop_front();
        queued_triplets_ -= r_size;
        r->reject = RejectReason::kDeadline;
        r->done = true;
        ++stats_.shed_expired;
        ++stats_.rejected_deadline;
        shed = true;
        continue;
      }
      if (!batch.empty() && total + r_size > max_batch_) break;
      batch.push_back(r);
      r->taken = true;
      total += r_size;
      queue_.pop_front();
      queued_triplets_ -= r_size;
    }
    if (batch.empty()) {
      // Everything queued had expired (own request included, possibly).
      leader_active_ = false;
      cv_.notify_all();
      continue;
    }
    ++stats_.batches_executed;
    if (batch.size() > 1)
      stats_.coalesced_requests += static_cast<std::int64_t>(batch.size());
    ++executing_;  // occupies a concurrency slot until the score() returns
    const bool leftovers = !queue_.empty();
    leader_active_ = false;
    lk.unlock();
    // Requests this drain could not fit elect their own leader and execute
    // concurrently with ours — score() is thread-safe. Shed requests also
    // need waking to observe their rejection.
    if (leftovers || shed) cv_.notify_all();

    // The execution slot is runtime-accounted: the batch scores on the
    // leader's thread (a queue round-trip would put serving tail latency at
    // the mercy of worker wakeup) under the pool's kServe class, and the
    // kernels inside score_ run their parallel regions on the shared pool —
    // serving compute and training compute draw on one thread budget
    // instead of two schemes assuming they own the machine.
    runtime::TaskPool::instance().record_external(runtime::TaskClass::kServe);

    if (batch.size() == 1) {
      // Solo request: no concatenation, score the span directly.
      const std::vector<float> scores = score_(batch[0]->triplets);
      std::memcpy(batch[0]->out, scores.data(), scores.size() * sizeof(float));
    } else {
      std::vector<Triplet> fused;
      fused.reserve(static_cast<std::size_t>(total));
      for (const Request* r : batch)
        fused.insert(fused.end(), r->triplets.begin(), r->triplets.end());
      const std::vector<float> scores = score_(fused);
      std::size_t offset = 0;
      for (const Request* r : batch) {
        std::memcpy(r->out, scores.data() + offset,
                    r->triplets.size() * sizeof(float));
        offset += r->triplets.size();
      }
    }

    lk.lock();
    --executing_;  // the freed slot lets the next leader start
    for (Request* r : batch) r->done = true;
    cv_.notify_all();
  }
  return req.reject;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace sptx::serve
