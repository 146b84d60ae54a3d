// IVF-style clustered ANN index over frozen entity embeddings, plus the
// versioned serving snapshot it ships in.
//
// The serving wall this attacks: top_tails/top_heads brute-force a score
// against every entity, so top-k QPS degrades linearly with vocabulary
// size. The index partitions the N entity points into k ≈ √N centroid
// lists (k-means, SIMD Lloyd iterations over the library's simd::
// primitives); a query then ranks the k centroids under the model family's
// probe geometry (models::AnnSupport), scans only the members of the top
// `nprobe` lists, and exact-re-ranks that candidate union through the
// model's own score path (eval::score_candidates). Only the CANDIDATE
// SET is approximate — every returned score is bit-identical to what the
// brute-force scan would have produced for the same entity, and probing
// all k lists returns exactly the brute-force result set.
//
// Index training is sampled Lloyd: iterations run over at most
// k·train_points_per_list points so build cost stays ~O(k²·d·iters)
// instead of O(N·k·d·iters), then one full assignment pass places all N
// points. Clustering always uses L2 geometry (the standard IVF choice);
// the PROBE metric is the family's (L1/L2/weighted-L2 distance or inner
// product), which is what recall rides on. Builds are deterministic: a
// seeded Rng, no data races, members sorted by entity id within each list.
//
// ServingSnapshot is the RCU payload for zero-downtime hot-swap: one
// immutable (version, model, index) triple published atomically under live
// sessions via a shared_ptr flip (session.hpp). The index holds no pointer
// back into the model — its centroids are copies and its member lists are
// plain ids — but it is only meaningful for the exact table it was built
// from, which is why the two travel in one snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/kernels/fused.hpp"
#include "src/models/model.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx::serve {

/// SPTX_ANN / SessionOptions::ann tri-state: kAuto engages the index when
/// the family has a transform AND the vocabulary clears the entity
/// threshold, kOn for any size, kOff never.
enum class AnnMode { kAuto, kOn, kOff };

/// Parse "auto" | "on" | "off" (case-insensitive); throws on anything else.
AnnMode parse_ann_mode(std::string_view text);

struct AnnIndexOptions {
  /// Centroid-list count; 0 derives ceil(√N) (clamped to [1, N]).
  index_t k_lists = 0;
  /// Lloyd iterations over the training sample.
  int iterations = 6;
  /// Training-sample budget per list: iterations see at most
  /// k_lists·this many points (the full N still gets assigned once).
  index_t train_points_per_list = 128;
  /// Seed for sampling + centroid init — builds are deterministic.
  std::uint64_t seed = 0x5EEDBA5Eu;
};

class AnnIndex {
 public:
  /// Cluster rows [0, num_entities) of `table` (the entity prefix of a
  /// stacked [entities; relations] table is exactly this). The index copies
  /// what it needs; `table` need not outlive it.
  static std::shared_ptr<const AnnIndex> build(
      const Matrix& table, index_t num_entities,
      const AnnIndexOptions& options = {});

  /// Probe geometry resolved for one query: the family's metric with the
  /// per-relation weight row (TransA) already selected.
  struct Probe {
    kernels::Norm norm = kernels::Norm::kL2;
    bool inner_product = false;
    const float* weights = nullptr;  // d floats, or null
  };

  /// Rank the centroids for query row `q` under `probe` and append the
  /// entity ids of the best `nprobe` lists to `out` (cleared first),
  /// extending past nprobe while fewer than `min_candidates` ids have
  /// accumulated (short lists must not starve a top-k). Returns the number
  /// of lists actually scanned. Deterministic: centroid ties break by list
  /// id, members are pre-sorted by entity id.
  int probe(const float* q, const Probe& probe_geom, int nprobe,
            index_t min_candidates, std::vector<index_t>& out) const;

  index_t k_lists() const { return centroids_.rows(); }
  index_t num_points() const { return num_points_; }
  index_t dim() const { return centroids_.cols(); }
  /// Resident footprint (centroids + lists) for the health surface.
  std::size_t bytes() const {
    return centroids_.bytes() + members_.size() * sizeof(index_t) +
           list_offsets_.size() * sizeof(index_t);
  }

  /// The default recall/latency dial when SPTX_ANN_NPROBE is unset: scan
  /// ~10% of the lists, never fewer than 4.
  static int auto_nprobe(index_t k_lists) {
    return static_cast<int>(std::max<index_t>(4, k_lists / 10));
  }

 private:
  AnnIndex() = default;

  Matrix centroids_;                   // k × d
  std::vector<index_t> list_offsets_;  // k + 1 CSR offsets into members_
  std::vector<index_t> members_;       // entity ids grouped by list
  index_t num_points_ = 0;
};

/// One immutable serving version: the frozen model and the ANN index built
/// over its entity table (null when ANN is off / unsupported / below the
/// threshold — sessions then brute-force, which is always correct).
struct ServingSnapshot {
  std::uint64_t version = 0;
  std::shared_ptr<const models::KgeModel> model;
  std::shared_ptr<const AnnIndex> ann;
};

/// Build the index for `model` iff `mode`, the family's ann_support() and
/// the `min_entities` threshold (kAuto only) all allow it; null otherwise.
std::shared_ptr<const AnnIndex> maybe_build_ann(
    const models::KgeModel& model, AnnMode mode, index_t min_entities,
    const AnnIndexOptions& options = {});

/// Assemble a ServingSnapshot: maybe_build_ann + version stamp. `model`
/// must be frozen/immutable (models::freeze).
std::shared_ptr<const ServingSnapshot> make_serving_snapshot(
    std::shared_ptr<const models::KgeModel> model, AnnMode mode,
    index_t min_entities, std::uint64_t version,
    const AnnIndexOptions& options = {});

}  // namespace sptx::serve
