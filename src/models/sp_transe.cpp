#include "src/models/sp_transe.hpp"

#include <cmath>

#include "src/kernels/fused.hpp"
#include "src/profiling/timer.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

SpTransE::SpTransE(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      ent_rel_(num_entities + num_relations, config.dim, rng) {}

sparse::ScoringRecipe SpTransE::recipe() const {
  sparse::ScoringRecipe r;
  r.hrt = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTransE::forward(const sparse::CompiledBatch& batch) {
  autograd::Variable hrt =
      autograd::spmm(batch.hrt(), ent_rel_.var());
  return config_.dissimilarity == Dissimilarity::kL2 ? autograd::row_l2(hrt)
                                                     : autograd::row_l1(hrt);
}

autograd::Variable SpTransE::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transe");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  const index_t n = num_entities_;
  Matrix out(batch.size(), 1);
  kernels::transe_forward(triplets, ent_rel_.weights(), n, norm, out.data());
  return autograd::Variable::op(
      std::move(out), {ent_rel_.var()},
      [triplets, norm, n, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transe_backward(triplets, node.parents()[0]->value(), n, norm,
                                 node.value().data(), node.grad().data(),
                                 node.parents()[0]->grad());
      },
      "kernels::fused_transe_backward");
}

std::vector<float> SpTransE::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transe_forward(batch, ent_rel_.weights(), num_entities_,
                            fused_norm(config_.dissimilarity), out.data());
    return out;
  }
  const Matrix& e = ent_rel_.weights();
  const index_t d = e.cols();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* r = e.row(num_entities_ + t.relation);
    const float* tl = e.row(t.tail);
    float acc = 0.0f;
    if (config_.dissimilarity == Dissimilarity::kL2) {
      for (index_t j = 0; j < d; ++j) {
        const float v = h[j] + r[j] - tl[j];
        acc += v * v;
      }
      out[i] = std::sqrt(acc);
    } else {
      for (index_t j = 0; j < d; ++j) acc += std::fabs(h[j] + r[j] - tl[j]);
      out[i] = acc;
    }
  }
  return out;
}

std::optional<AnnSupport> SpTransE::ann_support() const {
  return AnnSupport{&ent_rel_.weights(), fused_norm(config_.dissimilarity),
                    /*inner_product=*/false, /*probe_weights=*/nullptr};
}

void SpTransE::ann_query(bool corrupt_tail, std::int64_t anchor,
                         std::int64_t relation, float* q) const {
  const Matrix& e = ent_rel_.weights();
  const float* a = e.row(anchor);
  const float* r = e.row(num_entities_ + relation);
  const index_t d = e.cols();
  if (corrupt_tail) {
    for (index_t j = 0; j < d; ++j) q[j] = a[j] + r[j];
  } else {
    for (index_t j = 0; j < d; ++j) q[j] = a[j] - r[j];
  }
}

std::vector<autograd::Variable> SpTransE::params() {
  return {ent_rel_.var()};
}

void SpTransE::constrain(const sparse::RowSupport* touched) {
  if (!config_.normalize_entities) return;
  // Normalise only the entity block; relation translations stay free
  // (the TransE training protocol).
  ent_rel_.normalize_rows_prefix(num_entities_, touched);
}

}  // namespace sptx::models
