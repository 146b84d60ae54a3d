#include "src/models/sp_extra.hpp"

#include <cmath>

#include "src/kernels/fused.hpp"
#include "src/models/sp_transr.hpp"  // build_relation_selection_csr
#include "src/profiling/timer.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx::models {

namespace {

autograd::Variable norm_for(const autograd::Variable& x, Dissimilarity d) {
  return d == Dissimilarity::kL2 ? autograd::row_l2(x) : autograd::row_l1(x);
}

void clamp_nonnegative(Matrix& m, float floor_at = 1e-4f) {
  for (index_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] < floor_at) m.data()[i] = floor_at;
  }
}

/// Shared hrt-family probe query over a stacked [entities; relations]
/// table: tails look for t near h + r, heads for h near t − r.
void stacked_translation_query(const Matrix& table, index_t num_entities,
                               bool corrupt_tail, std::int64_t anchor,
                               std::int64_t relation, float* q) {
  const float* a = table.row(anchor);
  const float* r = table.row(num_entities + relation);
  const index_t d = table.cols();
  if (corrupt_tail) {
    for (index_t j = 0; j < d; ++j) q[j] = a[j] + r[j];
  } else {
    for (index_t j = 0; j < d; ++j) q[j] = a[j] - r[j];
  }
}

}  // namespace

// --------------------------------------------------------------- SpTransD

SpTransD::SpTransD(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      entity_proj_(num_entities, config.dim, rng),
      relations_(num_relations, config.dim, rng),
      relation_proj_(num_relations, config.dim, rng) {
  // Projection vectors start small so the model begins near plain TransE.
  entity_proj_.mutable_weights().scale_(0.1f);
  relation_proj_.mutable_weights().scale_(0.1f);
}

sparse::ScoringRecipe SpTransD::recipe() const {
  sparse::ScoringRecipe r;
  r.ht = true;
  r.head_selection = true;
  r.tail_selection = true;
  r.relation_selection = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTransD::forward(const sparse::CompiledBatch& batch) {
  // Rearranged TransD: (h − t) + r + ((h_pᵀh) − (t_pᵀt)) r_p.
  autograd::Variable ht =
      autograd::spmm(batch.ht(), entities_.var());
  autograd::Variable h =
      autograd::spmm(batch.head_selection(), entities_.var());
  autograd::Variable hp = autograd::spmm(batch.head_selection(),
                                         entity_proj_.var());
  autograd::Variable t =
      autograd::spmm(batch.tail_selection(), entities_.var());
  autograd::Variable tp = autograd::spmm(batch.tail_selection(),
                                         entity_proj_.var());
  autograd::Variable r = autograd::spmm(batch.relation_selection(),
                                        relations_.var());
  autograd::Variable rp = autograd::spmm(batch.relation_selection(),
                                         relation_proj_.var());

  autograd::Variable proj_scale =
      autograd::sub(autograd::row_dot(hp, h), autograd::row_dot(tp, t));
  autograd::Variable expr = autograd::add(
      autograd::add(ht, r), autograd::scale_rows(proj_scale, rp));
  return norm_for(expr, config_.dissimilarity);
}

autograd::Variable SpTransD::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transd");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  Matrix out(batch.size(), 1);
  kernels::transd_forward(triplets, entities_.weights(),
                          entity_proj_.weights(), relations_.weights(),
                          relation_proj_.weights(), norm, out.data());
  return autograd::Variable::op(
      std::move(out),
      {entities_.var(), entity_proj_.var(), relations_.var(),
       relation_proj_.var()},
      [triplets, norm, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transd_backward(
            triplets, node.parents()[0]->value(), node.parents()[1]->value(),
            node.parents()[2]->value(), node.parents()[3]->value(), norm,
            node.value().data(), node.grad().data(),
            node.parents()[0]->grad(), node.parents()[1]->grad(),
            node.parents()[2]->grad(), node.parents()[3]->grad());
      },
      "kernels::fused_transd_backward");
}

std::vector<float> SpTransD::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transd_forward(batch, entities_.weights(),
                            entity_proj_.weights(), relations_.weights(),
                            relation_proj_.weights(),
                            fused_norm(config_.dissimilarity), out.data());
    return out;
  }
  const Matrix& e = entities_.weights();
  const Matrix& ep = entity_proj_.weights();
  const Matrix& r = relations_.weights();
  const Matrix& rp = relation_proj_.weights();
  const index_t d = config_.dim;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* tl = e.row(t.tail);
    const float* hp = ep.row(t.head);
    const float* tp = ep.row(t.tail);
    const float* rv = r.row(t.relation);
    const float* rpv = rp.row(t.relation);
    float hdot = 0.0f, tdot = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      hdot += hp[j] * h[j];
      tdot += tp[j] * tl[j];
    }
    const float s = hdot - tdot;
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float v = (h[j] - tl[j]) + rv[j] + s * rpv[j];
      acc += config_.dissimilarity == Dissimilarity::kL2 ? v * v
                                                         : std::fabs(v);
    }
    out[i] =
        config_.dissimilarity == Dissimilarity::kL2 ? std::sqrt(acc) : acc;
  }
  return out;
}

std::vector<autograd::Variable> SpTransD::params() {
  return {entities_.var(), entity_proj_.var(), relations_.var(),
          relation_proj_.var()};
}

void SpTransD::constrain(const sparse::RowSupport* touched) {
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

// --------------------------------------------------------------- SpTransA

SpTransA::SpTransA(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      ent_rel_(num_entities + num_relations, config.dim, rng),
      metric_(num_relations, config.dim, rng) {
  metric_.mutable_weights().fill(1.0f);  // start at the Euclidean metric
}

sparse::ScoringRecipe SpTransA::recipe() const {
  sparse::ScoringRecipe r;
  r.hrt = true;
  r.relation_selection = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTransA::forward(const sparse::CompiledBatch& batch) {
  autograd::Variable hrt =
      autograd::spmm(batch.hrt(), ent_rel_.var());
  autograd::Variable w = autograd::spmm(batch.relation_selection(),
                                        metric_.var());
  // Diagonal adaptive metric: Σ_j w_rj · hrt_j².
  return autograd::row_dot(w, autograd::mul(hrt, hrt));
}

autograd::Variable SpTransA::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transa");
  const auto triplets = batch.triplets();
  const index_t n = num_entities_;
  Matrix out(batch.size(), 1);
  kernels::transa_forward(triplets, ent_rel_.weights(), metric_.weights(), n,
                          out.data());
  return autograd::Variable::op(
      std::move(out), {ent_rel_.var(), metric_.var()},
      [triplets, n, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transa_backward(triplets, node.parents()[0]->value(),
                                 node.parents()[1]->value(), n,
                                 node.grad().data(),
                                 node.parents()[0]->grad(),
                                 node.parents()[1]->grad());
      },
      "kernels::fused_transa_backward");
}

std::vector<float> SpTransA::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transa_forward(batch, ent_rel_.weights(), metric_.weights(),
                            num_entities_, out.data());
    return out;
  }
  const Matrix& e = ent_rel_.weights();
  const Matrix& w = metric_.weights();
  const index_t d = e.cols();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* r = e.row(num_entities_ + t.relation);
    const float* tl = e.row(t.tail);
    const float* wr = w.row(t.relation);
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float v = h[j] + r[j] - tl[j];
      acc += wr[j] * v * v;
    }
    out[i] = acc;
  }
  return out;
}

std::optional<AnnSupport> SpTransA::ann_support() const {
  return AnnSupport{&ent_rel_.weights(), kernels::Norm::kL2,
                    /*inner_product=*/false, &metric_.weights()};
}

void SpTransA::ann_query(bool corrupt_tail, std::int64_t anchor,
                         std::int64_t relation, float* q) const {
  stacked_translation_query(ent_rel_.weights(), num_entities_, corrupt_tail,
                            anchor, relation, q);
}

std::vector<autograd::Variable> SpTransA::params() {
  return {ent_rel_.var(), metric_.var()};
}

void SpTransA::constrain(const sparse::RowSupport* touched) {
  // W_r must stay PSD; for a diagonal metric that is elementwise ≥ 0.
  clamp_nonnegative(metric_.mutable_weights());
  if (config_.normalize_entities) {
    ent_rel_.normalize_rows_prefix(num_entities_, touched);
  }
}

// --------------------------------------------------------------- SpTransC

SpTransC::SpTransC(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      ent_rel_(num_entities + num_relations, config.dim, rng) {}

sparse::ScoringRecipe SpTransC::recipe() const {
  sparse::ScoringRecipe r;
  r.hrt = true;
  r.dim = config_.dim;
  return r;
}

autograd::Variable SpTransC::forward(const sparse::CompiledBatch& batch) {
  autograd::Variable hrt =
      autograd::spmm(batch.hrt(), ent_rel_.var());
  return autograd::row_squared_l2(hrt);  // Table 2: ||h + r − t||₂²
}

autograd::Variable SpTransC::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transc");
  const auto triplets = batch.triplets();
  const index_t n = num_entities_;
  Matrix out(batch.size(), 1);
  kernels::transc_forward(triplets, ent_rel_.weights(), n, out.data());
  return autograd::Variable::op(
      std::move(out), {ent_rel_.var()},
      [triplets, n, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transc_backward(triplets, node.parents()[0]->value(), n,
                                 node.grad().data(),
                                 node.parents()[0]->grad());
      },
      "kernels::fused_transc_backward");
}

std::vector<float> SpTransC::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transc_forward(batch, ent_rel_.weights(), num_entities_,
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
      const float v = h[j] + r[j] - tl[j];
      acc += v * v;
    }
    out[i] = acc;
  }
  return out;
}

std::optional<AnnSupport> SpTransC::ann_support() const {
  return AnnSupport{&ent_rel_.weights(), kernels::Norm::kL2,
                    /*inner_product=*/false, /*probe_weights=*/nullptr};
}

void SpTransC::ann_query(bool corrupt_tail, std::int64_t anchor,
                         std::int64_t relation, float* q) const {
  stacked_translation_query(ent_rel_.weights(), num_entities_, corrupt_tail,
                            anchor, relation, q);
}

std::vector<autograd::Variable> SpTransC::params() {
  return {ent_rel_.var()};
}

void SpTransC::constrain(const sparse::RowSupport* touched) {
  if (!config_.normalize_entities) return;
  ent_rel_.normalize_rows_prefix(num_entities_, touched);
}

// --------------------------------------------------------------- SpTransM

SpTransM::SpTransM(index_t num_entities, index_t num_relations,
                   const ModelConfig& config, Rng& rng)
    : ScoringCoreModel(num_entities, num_relations, config),
      ent_rel_(num_entities + num_relations, config.dim, rng),
      rel_weight_(num_relations, 1, rng) {
  rel_weight_.mutable_weights().fill(1.0f);
}

sparse::ScoringRecipe SpTransM::recipe() const {
  sparse::ScoringRecipe r;
  r.hrt = true;
  r.relation_selection = true;
  r.dim = config_.dim;
  r.relation_dim = 1;  // w_r is one scalar per relation
  return r;
}

autograd::Variable SpTransM::forward(const sparse::CompiledBatch& batch) {
  autograd::Variable hrt =
      autograd::spmm(batch.hrt(), ent_rel_.var());
  autograd::Variable w = autograd::spmm(batch.relation_selection(),
                                        rel_weight_.var());
  return autograd::mul(w, norm_for(hrt, config_.dissimilarity));
}

autograd::Variable SpTransM::fused_forward(const sparse::CompiledBatch& batch) {
  profiling::ScopedHotspot hotspot("kernels::fused_transm");
  const auto triplets = batch.triplets();
  const kernels::Norm norm = fused_norm(config_.dissimilarity);
  const index_t n = num_entities_;
  Matrix out(batch.size(), 1);
  kernels::transm_forward(triplets, ent_rel_.weights(), rel_weight_.weights(),
                          n, norm, out.data());
  return autograd::Variable::op(
      std::move(out), {ent_rel_.var(), rel_weight_.var()},
      [triplets, norm, n, keep = batch.owned_triplets()](autograd::Node& node) {
        if (!fused_backward_needed(node)) return;
        kernels::transm_backward(triplets, node.parents()[0]->value(),
                                 node.parents()[1]->value(), n, norm,
                                 node.grad().data(),
                                 node.parents()[0]->grad(),
                                 node.parents()[1]->grad());
      },
      "kernels::fused_transm_backward");
}

std::vector<float> SpTransM::score(std::span<const Triplet> batch) const {
  std::vector<float> out(batch.size());
  if (kernels::fused_enabled()) {
    kernels::transm_forward(batch, ent_rel_.weights(), rel_weight_.weights(),
                            num_entities_, fused_norm(config_.dissimilarity),
                            out.data());
    return out;
  }
  const Matrix& e = ent_rel_.weights();
  const Matrix& w = rel_weight_.weights();
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
      acc = std::sqrt(acc);
    } else {
      for (index_t j = 0; j < d; ++j) acc += std::fabs(h[j] + r[j] - tl[j]);
    }
    out[i] = w.at(t.relation, 0) * acc;
  }
  return out;
}

std::optional<AnnSupport> SpTransM::ann_support() const {
  return AnnSupport{&ent_rel_.weights(), fused_norm(config_.dissimilarity),
                    /*inner_product=*/false, /*probe_weights=*/nullptr};
}

void SpTransM::ann_query(bool corrupt_tail, std::int64_t anchor,
                         std::int64_t relation, float* q) const {
  stacked_translation_query(ent_rel_.weights(), num_entities_, corrupt_tail,
                            anchor, relation, q);
}

std::vector<autograd::Variable> SpTransM::params() {
  return {ent_rel_.var(), rel_weight_.var()};
}

void SpTransM::constrain(const sparse::RowSupport* touched) {
  clamp_nonnegative(rel_weight_.mutable_weights());
  if (!config_.normalize_entities) return;
  ent_rel_.normalize_rows_prefix(num_entities_, touched);
}

}  // namespace sptx::models
