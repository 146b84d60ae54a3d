#include "src/models/sp_transh.hpp"

#include <cmath>

#include "src/kernels/fused.hpp"
#include "src/models/sp_transr.hpp"  // build_relation_selection_csr
#include "src/profiling/timer.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

SpTransH::SpTransH(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      normals_(num_relations, config.dim, rng),
      transfers_(num_relations, config.dim, rng) {
  normals_.normalize_rows();  // hyperplane normals start unit-length
}

sparse::ScoringRecipe SpTransH::recipe() const {
  sparse::ScoringRecipe r;
  r.ht = true;
  r.relation_selection = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTransH::forward(const sparse::CompiledBatch& batch) {
  // One shared (h − t); w and d gathered through the same selection matrix.
  autograd::Variable ht =
      autograd::spmm(batch.ht(), entities_.var());
  autograd::Variable w = autograd::spmm(batch.relation_selection(),
                                        normals_.var());
  autograd::Variable d = autograd::spmm(batch.relation_selection(),
                                        transfers_.var());

  // (h − t) + d_r − (w_rᵀ(h − t)) w_r
  autograd::Variable wdot = autograd::row_dot(w, ht);
  autograd::Variable proj = autograd::scale_rows(wdot, w);
  autograd::Variable expr =
      autograd::sub(autograd::add(ht, d), proj);
  return config_.dissimilarity == Dissimilarity::kL2 ? autograd::row_l2(expr)
                                                     : autograd::row_l1(expr);
}

autograd::Variable SpTransH::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transh");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  Matrix out(batch.size(), 1);
  kernels::transh_forward(triplets, entities_.weights(), normals_.weights(),
                          transfers_.weights(), norm, out.data());
  return autograd::Variable::op(
      std::move(out),
      {entities_.var(), normals_.var(), transfers_.var()},
      [triplets, norm, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transh_backward(
            triplets, node.parents()[0]->value(), node.parents()[1]->value(),
            node.parents()[2]->value(), norm, node.value().data(),
            node.grad().data(), node.parents()[0]->grad(),
            node.parents()[1]->grad(), node.parents()[2]->grad());
      },
      "kernels::fused_transh_backward");
}

std::vector<float> SpTransH::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transh_forward(batch, entities_.weights(), normals_.weights(),
                            transfers_.weights(),
                            fused_norm(config_.dissimilarity),
                            out.data());
    return out;
  }
  const Matrix& e = entities_.weights();
  const Matrix& wn = normals_.weights();
  const Matrix& dt = transfers_.weights();
  const index_t d = config_.dim;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* tl = e.row(t.tail);
    const float* w = wn.row(t.relation);
    const float* dr = dt.row(t.relation);
    float wdot = 0.0f;
    for (index_t j = 0; j < d; ++j) wdot += w[j] * (h[j] - tl[j]);
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float v = (h[j] - tl[j]) + dr[j] - wdot * w[j];
      acc += config_.dissimilarity == Dissimilarity::kL2 ? v * v
                                                         : std::fabs(v);
    }
    out[i] =
        config_.dissimilarity == Dissimilarity::kL2 ? std::sqrt(acc) : acc;
  }
  return out;
}

std::vector<autograd::Variable> SpTransH::params() {
  return {entities_.var(), normals_.var(), transfers_.var()};
}

void SpTransH::constrain(const sparse::RowSupport* touched) {
  // TransH constraints: unit hyperplane normals always; entity norm cap.
  normals_.normalize_rows();
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

}  // namespace sptx::models
