#include "src/serve/ann_index.hpp"

#include <cctype>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/error.hpp"
#include "src/runtime/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/profiling/counters.hpp"

namespace sptx::serve {

AnnMode parse_ann_mode(std::string_view text) {
  std::string lower(text);
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "auto") return AnnMode::kAuto;
  if (lower == "on") return AnnMode::kOn;
  if (lower == "off") return AnnMode::kOff;
  throw Error("invalid ANN mode '" + std::string(text) +
              "' (expected auto|on|off)");
}

namespace {

/// Index of the L2-nearest centroid via the expansion argmin ||x − c||² =
/// argmax ⟨x, c⟩ − ½||c||² (centroid norms precomputed once per pass).
/// `vec` is simd_enabled(), resolved once per pass by the caller.
index_t nearest_centroid(const float* x, const Matrix& centroids,
                         const std::vector<float>& half_sqnorm, bool vec) {
  const index_t k = centroids.rows();
  const index_t d = centroids.cols();
  index_t best = 0;
  float best_score = simd::dot(x, centroids.row(0), d, vec) - half_sqnorm[0];
  for (index_t j = 1; j < k; ++j) {
    const float s = simd::dot(x, centroids.row(j), d, vec) - half_sqnorm[j];
    if (s > best_score) {
      best_score = s;
      best = j;
    }
  }
  return best;
}

std::vector<float> half_squared_norms(const Matrix& centroids, bool vec) {
  std::vector<float> out(static_cast<std::size_t>(centroids.rows()));
  for (index_t j = 0; j < centroids.rows(); ++j)
    out[static_cast<std::size_t>(j)] =
        0.5f * simd::squared_norm(centroids.row(j), centroids.cols(), vec);
  return out;
}

}  // namespace

std::shared_ptr<const AnnIndex> AnnIndex::build(const Matrix& table,
                                                index_t num_entities,
                                                const AnnIndexOptions& options) {
  SPTX_CHECK(num_entities > 0 && num_entities <= table.rows(),
             "ANN build over " << num_entities << " entities but the table has "
                               << table.rows() << " rows");
  const index_t n = num_entities;
  const index_t d = table.cols();
  const bool vec = simd_enabled();
  index_t k = options.k_lists > 0
                  ? options.k_lists
                  : static_cast<index_t>(
                        std::ceil(std::sqrt(static_cast<double>(n))));
  k = std::clamp<index_t>(k, 1, n);

  // Training sample: iterations over min(N, k·per_list) points keeps the
  // Lloyd cost ~O(k²·d·iters) at million-entity scale.
  Rng rng(options.seed);
  const index_t sample_size =
      std::min(n, k * std::max<index_t>(options.train_points_per_list, 1));
  std::vector<index_t> sample(static_cast<std::size_t>(sample_size));
  if (sample_size == n) {
    std::iota(sample.begin(), sample.end(), index_t{0});
  } else {
    for (index_t& s : sample)
      s = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
  }

  // Init: k distinct sample positions (Fisher–Yates prefix of the sample).
  auto index = std::shared_ptr<AnnIndex>(new AnnIndex());
  index->centroids_ = Matrix(k, d);
  for (index_t j = 0; j < k; ++j) {
    const std::size_t pick =
        static_cast<std::size_t>(j) +
        static_cast<std::size_t>(rng.next_below(
            static_cast<std::uint64_t>(sample_size - j)));
    std::swap(sample[static_cast<std::size_t>(j)], sample[pick]);
    const float* src = table.row(sample[static_cast<std::size_t>(j)]);
    std::copy(src, src + d, index->centroids_.row(j));
  }
  Matrix& centroids = index->centroids_;

  std::vector<index_t> assign(static_cast<std::size_t>(sample_size));
  Matrix sums(k, d);
  std::vector<index_t> counts(static_cast<std::size_t>(k));
  for (int iter = 0; iter < std::max(options.iterations, 1); ++iter) {
    const std::vector<float> half = half_squared_norms(centroids, vec);
    runtime::parallel_for(
        0, sample_size,
        [&](index_t i) {
          assign[static_cast<std::size_t>(i)] =
              nearest_centroid(table.row(sample[static_cast<std::size_t>(i)]),
                               centroids, half, vec);
        },
        /*grain=*/256);
    std::fill(sums.data(), sums.data() + sums.size(), 0.0f);
    std::fill(counts.begin(), counts.end(), index_t{0});
    for (index_t i = 0; i < sample_size; ++i) {
      const index_t c = assign[static_cast<std::size_t>(i)];
      simd::add(sums.row(c), table.row(sample[static_cast<std::size_t>(i)]), d,
                vec);
      ++counts[static_cast<std::size_t>(c)];
    }
    for (index_t j = 0; j < k; ++j) {
      if (counts[static_cast<std::size_t>(j)] > 0) {
        const float inv =
            1.0f / static_cast<float>(counts[static_cast<std::size_t>(j)]);
        const float* s = sums.row(j);
        float* c = centroids.row(j);
        for (index_t col = 0; col < d; ++col) c[col] = s[col] * inv;
      } else {
        // Empty list: re-seed from a random sample point so k lists survive.
        const float* src = table.row(sample[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(sample_size)))]);
        std::copy(src, src + d, centroids.row(j));
      }
    }
  }

  // One full assignment pass over all N points, then a counting sort into
  // CSR lists. Ascending entity order within each list falls out of the
  // stable placement loop.
  std::vector<index_t> full(static_cast<std::size_t>(n));
  {
    const std::vector<float> half = half_squared_norms(centroids, vec);
    runtime::parallel_for(
        0, n,
        [&](index_t i) {
          full[static_cast<std::size_t>(i)] =
              nearest_centroid(table.row(i), centroids, half, vec);
        },
        /*grain=*/256);
  }
  index->list_offsets_.assign(static_cast<std::size_t>(k) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    ++index->list_offsets_[static_cast<std::size_t>(full[
        static_cast<std::size_t>(i)]) + 1];
  for (std::size_t j = 1; j < index->list_offsets_.size(); ++j)
    index->list_offsets_[j] += index->list_offsets_[j - 1];
  index->members_.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(index->list_offsets_.begin(),
                              index->list_offsets_.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const index_t c = full[static_cast<std::size_t>(i)];
    index->members_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(c)]++)] = i;
  }
  index->num_points_ = n;
  profiling::count_event(profiling::Counter::kAnnIndexBuilds);
  return index;
}

int AnnIndex::probe(const float* q, const Probe& probe_geom, int nprobe,
                    index_t min_candidates, std::vector<index_t>& out) const {
  const index_t k = centroids_.rows();
  const index_t d = centroids_.cols();
  const bool vec = simd_enabled();
  out.clear();

  // Rank every centroid under the family's probe metric; lower = better
  // (inner product negated). Ties break on list id for determinism.
  std::vector<std::pair<float, index_t>> order(static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const float* c = centroids_.row(j);
    float s;
    if (probe_geom.inner_product) {
      s = -simd::dot(q, c, d, vec);
    } else if (probe_geom.weights != nullptr) {
      float acc = 0.0f;
      for (index_t col = 0; col < d; ++col) {
        const float v = q[col] - c[col];
        acc += probe_geom.weights[col] * v * v;
      }
      s = acc;
    } else if (probe_geom.norm == kernels::Norm::kL2) {
      float acc = 0.0f;
      for (index_t col = 0; col < d; ++col) {
        const float v = q[col] - c[col];
        acc += v * v;
      }
      s = acc;
    } else {
      float acc = 0.0f;
      for (index_t col = 0; col < d; ++col)
        acc += std::fabs(q[col] - c[col]);
      s = acc;
    }
    order[static_cast<std::size_t>(j)] = {s, j};
  }
  std::sort(order.begin(), order.end());

  const int want = std::max(nprobe, 1);
  int probed = 0;
  for (const auto& [score, j] : order) {
    if (probed >= want && static_cast<index_t>(out.size()) >= min_candidates)
      break;
    const auto begin = static_cast<std::size_t>(
        list_offsets_[static_cast<std::size_t>(j)]);
    const auto end = static_cast<std::size_t>(
        list_offsets_[static_cast<std::size_t>(j) + 1]);
    out.insert(out.end(), members_.begin() + static_cast<std::ptrdiff_t>(begin),
               members_.begin() + static_cast<std::ptrdiff_t>(end));
    ++probed;
  }
  return probed;
}

std::shared_ptr<const AnnIndex> maybe_build_ann(const models::KgeModel& model,
                                                AnnMode mode,
                                                index_t min_entities,
                                                const AnnIndexOptions& options) {
  if (mode == AnnMode::kOff) return nullptr;
  if (mode == AnnMode::kAuto && model.num_entities() < min_entities)
    return nullptr;
  const auto support = model.ann_support();
  if (!support) return nullptr;
  return AnnIndex::build(*support->table, model.num_entities(), options);
}

std::shared_ptr<const ServingSnapshot> make_serving_snapshot(
    std::shared_ptr<const models::KgeModel> model, AnnMode mode,
    index_t min_entities, std::uint64_t version,
    const AnnIndexOptions& options) {
  SPTX_CHECK(model != nullptr, "a serving snapshot needs a frozen model");
  auto snapshot = std::make_shared<ServingSnapshot>();
  snapshot->version = version;
  snapshot->ann = maybe_build_ann(*model, mode, min_entities, options);
  snapshot->model = std::move(model);
  return snapshot;
}

}  // namespace sptx::serve
