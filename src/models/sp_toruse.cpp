#include "src/models/sp_toruse.hpp"

#include <cmath>

#include "src/kernels/fused.hpp"
#include "src/profiling/timer.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

SpTorusE::SpTorusE(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      ent_rel_(num_entities + num_relations, config.dim, rng) {
  // TorusE lives on [0,1)^d: map the Xavier init onto the torus.
  Matrix& w = ent_rel_.mutable_weights();
  for (index_t i = 0; i < w.size(); ++i)
    w.data()[i] = w.data()[i] - std::floor(w.data()[i]);
}

sparse::ScoringRecipe SpTorusE::recipe() const {
  sparse::ScoringRecipe r;
  r.hrt = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTorusE::forward(const sparse::CompiledBatch& batch) {
  autograd::Variable hrt =
      autograd::spmm(batch.hrt(), ent_rel_.var());
  return config_.dissimilarity == Dissimilarity::kL2
             ? autograd::row_squared_l2_torus(hrt)
             : autograd::row_l1_torus(hrt);
}

autograd::Variable SpTorusE::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_toruse");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  const index_t n = num_entities_;
  Matrix out(batch.size(), 1);
  kernels::toruse_forward(triplets, ent_rel_.weights(), n, norm, out.data());
  return autograd::Variable::op(
      std::move(out), {ent_rel_.var()},
      [triplets, norm, n, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::toruse_backward(triplets, node.parents()[0]->value(), n, norm,
                                 node.grad().data(),
                                 node.parents()[0]->grad());
      },
      "kernels::fused_toruse_backward");
}

std::vector<float> SpTorusE::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::toruse_forward(batch, ent_rel_.weights(), num_entities_,
                            fused_norm(config_.dissimilarity),
                            out.data());
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
    for (index_t j = 0; j < d; ++j) {
      const float x = h[j] + r[j] - tl[j];
      const float f = x - std::floor(x);
      const float m = f < 0.5f ? f : 1.0f - f;
      acc += config_.dissimilarity == Dissimilarity::kL2 ? m * m : m;
    }
    out[i] = acc;
  }
  return out;
}

std::vector<autograd::Variable> SpTorusE::params() {
  return {ent_rel_.var()};
}

}  // namespace sptx::models
