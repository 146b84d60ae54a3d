#include "src/baseline/dense_models.hpp"

#include <cmath>

namespace sptx::baseline {

namespace {

using autograd::Variable;

struct BatchIndices {
  std::shared_ptr<std::vector<index_t>> heads;
  std::shared_ptr<std::vector<index_t>> tails;
  std::shared_ptr<std::vector<index_t>> rels;
};

BatchIndices split_indices(std::span<const Triplet> batch) {
  BatchIndices idx{std::make_shared<std::vector<index_t>>(),
                   std::make_shared<std::vector<index_t>>(),
                   std::make_shared<std::vector<index_t>>()};
  idx.heads->reserve(batch.size());
  idx.tails->reserve(batch.size());
  idx.rels->reserve(batch.size());
  for (const Triplet& t : batch) {
    idx.heads->push_back(t.head);
    idx.tails->push_back(t.tail);
    idx.rels->push_back(t.relation);
  }
  return idx;
}

Variable norm_of(const Variable& x, Dissimilarity d) {
  return d == Dissimilarity::kL2 ? autograd::row_l2(x) : autograd::row_l1(x);
}

}  // namespace

// ------------------------------------------------------------ DenseTransE

DenseTransE::DenseTransE(index_t num_entities, index_t num_relations,
                         const ModelConfig& config, Rng& rng)
    : KgeModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      relations_(num_relations, config.dim, rng) {}

Variable DenseTransE::distance(std::span<const Triplet> batch) {
  const BatchIndices idx = split_indices(batch);
  // Three fine-grained gathers, then two elementwise passes — each step a
  // fresh M×d intermediate, as TorchKGE's h + r − t evaluates.
  Variable h = autograd::gather(entities_.var(), idx.heads);
  Variable t = autograd::gather(entities_.var(), idx.tails);
  Variable r = autograd::gather(relations_.var(), idx.rels);
  Variable hr = autograd::add(h, r);
  Variable hrt = autograd::sub(hr, t);
  return norm_of(hrt, config_.dissimilarity);
}

Variable DenseTransE::loss(std::span<const Triplet> pos,
                           std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

std::vector<float> DenseTransE::score(std::span<const Triplet> batch) const {
  const Matrix& e = entities_.weights();
  const Matrix& r = relations_.weights();
  const index_t d = e.cols();
  std::vector<float> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* rv = r.row(t.relation);
    const float* tl = e.row(t.tail);
    float acc = 0.0f;
    if (config_.dissimilarity == Dissimilarity::kL2) {
      for (index_t j = 0; j < d; ++j) {
        const float v = h[j] + rv[j] - tl[j];
        acc += v * v;
      }
      out[i] = std::sqrt(acc);
    } else {
      for (index_t j = 0; j < d; ++j) acc += std::fabs(h[j] + rv[j] - tl[j]);
      out[i] = acc;
    }
  }
  return out;
}

std::vector<autograd::Variable> DenseTransE::params() {
  return {entities_.var(), relations_.var()};
}

void DenseTransE::constrain(const sparse::RowSupport* touched) {
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

// ------------------------------------------------------------ DenseTransR

DenseTransR::DenseTransR(index_t num_entities, index_t num_relations,
                         const ModelConfig& config, Rng& rng)
    : KgeModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      relations_(num_relations, config.rel_dim, rng),
      projections_(num_relations * config.rel_dim, config.dim, rng) {}

Variable DenseTransR::distance(std::span<const Triplet> batch) {
  const BatchIndices idx = split_indices(batch);
  Variable h = autograd::gather(entities_.var(), idx.heads);
  Variable t = autograd::gather(entities_.var(), idx.tails);
  Variable r = autograd::gather(relations_.var(), idx.rels);
  // TorchKGE projects head and tail separately: two per-relation GEMMs
  // where the sparse rearrangement needs one.
  Variable ph = autograd::relation_project(projections_.var(), h, idx.rels,
                                           config_.rel_dim);
  Variable pt = autograd::relation_project(projections_.var(), t, idx.rels,
                                           config_.rel_dim);
  Variable phr = autograd::add(ph, r);
  Variable expr = autograd::sub(phr, pt);
  return norm_of(expr, config_.dissimilarity);
}

Variable DenseTransR::loss(std::span<const Triplet> pos,
                           std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

std::vector<float> DenseTransR::score(std::span<const Triplet> batch) const {
  const Matrix& e = entities_.weights();
  const Matrix& r = relations_.weights();
  const Matrix& m = projections_.weights();
  const index_t de = config_.dim;
  const index_t dr = config_.rel_dim;
  std::vector<float> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* tl = e.row(t.tail);
    const float* rv = r.row(t.relation);
    float acc = 0.0f;
    for (index_t p = 0; p < dr; ++p) {
      const float* mrow = m.row(t.relation * dr + p);
      float ph = 0.0f, pt = 0.0f;
      for (index_t q = 0; q < de; ++q) {
        ph += mrow[q] * h[q];
        pt += mrow[q] * tl[q];
      }
      const float v = ph + rv[p] - pt;
      acc += config_.dissimilarity == Dissimilarity::kL2 ? v * v
                                                         : std::fabs(v);
    }
    out[i] =
        config_.dissimilarity == Dissimilarity::kL2 ? std::sqrt(acc) : acc;
  }
  return out;
}

std::vector<autograd::Variable> DenseTransR::params() {
  return {entities_.var(), relations_.var(), projections_.var()};
}

std::vector<ParamIndexSpace> DenseTransR::param_index_spaces() {
  // The projection stack is (R·d_r) × d with block r owned by relation r,
  // exactly as SpTransR's; shape inference must not guess at it.
  return {ParamIndexSpace::kEntity, ParamIndexSpace::kRelation,
          ParamIndexSpace::kRelationBlocks};
}

void DenseTransR::constrain(const sparse::RowSupport* touched) {
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

// ------------------------------------------------------------ DenseTransH

DenseTransH::DenseTransH(index_t num_entities, index_t num_relations,
                         const ModelConfig& config, Rng& rng)
    : KgeModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      normals_(num_relations, config.dim, rng),
      transfers_(num_relations, config.dim, rng) {
  normals_.normalize_rows();
}

Variable DenseTransH::distance(std::span<const Triplet> batch) {
  const BatchIndices idx = split_indices(batch);
  Variable h = autograd::gather(entities_.var(), idx.heads);
  Variable t = autograd::gather(entities_.var(), idx.tails);
  Variable w = autograd::gather(normals_.var(), idx.rels);
  Variable d = autograd::gather(transfers_.var(), idx.rels);
  // h⊥ and t⊥ computed independently — the larger computational graph the
  // paper notes for dense TransH (§6.2.1).
  Variable wh = autograd::row_dot(w, h);
  Variable h_proj = autograd::sub(h, autograd::scale_rows(wh, w));
  Variable wt = autograd::row_dot(w, t);
  Variable t_proj = autograd::sub(t, autograd::scale_rows(wt, w));
  Variable expr = autograd::sub(autograd::add(h_proj, d), t_proj);
  return norm_of(expr, config_.dissimilarity);
}

Variable DenseTransH::loss(std::span<const Triplet> pos,
                           std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

std::vector<float> DenseTransH::score(std::span<const Triplet> batch) const {
  const Matrix& e = entities_.weights();
  const Matrix& wn = normals_.weights();
  const Matrix& dt = transfers_.weights();
  const index_t d = config_.dim;
  std::vector<float> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* tl = e.row(t.tail);
    const float* w = wn.row(t.relation);
    const float* dr = dt.row(t.relation);
    float wh = 0.0f, wt = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      wh += w[j] * h[j];
      wt += w[j] * tl[j];
    }
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float v =
          (h[j] - wh * w[j]) + dr[j] - (tl[j] - wt * w[j]);
      acc += config_.dissimilarity == Dissimilarity::kL2 ? v * v
                                                         : std::fabs(v);
    }
    out[i] =
        config_.dissimilarity == Dissimilarity::kL2 ? std::sqrt(acc) : acc;
  }
  return out;
}

std::vector<autograd::Variable> DenseTransH::params() {
  return {entities_.var(), normals_.var(), transfers_.var()};
}

void DenseTransH::constrain(const sparse::RowSupport* touched) {
  normals_.normalize_rows();
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

// ------------------------------------------------------------ DenseTransD

DenseTransD::DenseTransD(index_t num_entities, index_t num_relations,
                         const ModelConfig& config, Rng& rng)
    : KgeModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      entity_proj_(num_entities, config.dim, rng),
      relations_(num_relations, config.dim, rng),
      relation_proj_(num_relations, config.dim, rng) {
  entity_proj_.mutable_weights().scale_(0.1f);
  relation_proj_.mutable_weights().scale_(0.1f);
}

Variable DenseTransD::distance(std::span<const Triplet> batch) {
  const BatchIndices idx = split_indices(batch);
  // Six fine-grained gathers (h, t, h_p, t_p, r, r_p)...
  Variable h = autograd::gather(entities_.var(), idx.heads);
  Variable t = autograd::gather(entities_.var(), idx.tails);
  Variable hp = autograd::gather(entity_proj_.var(), idx.heads);
  Variable tp = autograd::gather(entity_proj_.var(), idx.tails);
  Variable r = autograd::gather(relations_.var(), idx.rels);
  Variable rp = autograd::gather(relation_proj_.var(), idx.rels);
  // ...then h⊥ and t⊥ computed independently, as TorchKGE evaluates the
  // dynamic mapping (the sparse rearrangement shares one scaling of r_p).
  Variable h_perp =
      autograd::add(h, autograd::scale_rows(autograd::row_dot(hp, h), rp));
  Variable t_perp =
      autograd::add(t, autograd::scale_rows(autograd::row_dot(tp, t), rp));
  Variable expr = autograd::sub(autograd::add(h_perp, r), t_perp);
  return norm_of(expr, config_.dissimilarity);
}

Variable DenseTransD::loss(std::span<const Triplet> pos,
                           std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

std::vector<float> DenseTransD::score(std::span<const Triplet> batch) const {
  const Matrix& e = entities_.weights();
  const Matrix& ep = entity_proj_.weights();
  const Matrix& r = relations_.weights();
  const Matrix& rp = relation_proj_.weights();
  const index_t d = config_.dim;
  std::vector<float> out(batch.size());
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
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float v = (h[j] + hdot * rpv[j]) + rv[j] -
                      (tl[j] + tdot * rpv[j]);
      acc += config_.dissimilarity == Dissimilarity::kL2 ? v * v
                                                         : std::fabs(v);
    }
    out[i] =
        config_.dissimilarity == Dissimilarity::kL2 ? std::sqrt(acc) : acc;
  }
  return out;
}

std::vector<autograd::Variable> DenseTransD::params() {
  return {entities_.var(), entity_proj_.var(), relations_.var(),
          relation_proj_.var()};
}

void DenseTransD::constrain(const sparse::RowSupport* touched) {
  if (config_.normalize_entities)
    entities_.normalize_rows_prefix(num_entities_, touched);
}

// ------------------------------------------------------------ DenseTorusE

DenseTorusE::DenseTorusE(index_t num_entities, index_t num_relations,
                         const ModelConfig& config, Rng& rng)
    : KgeModel(num_entities, num_relations, config),
      entities_(num_entities, config.dim, rng),
      relations_(num_relations, config.dim, rng) {
  auto to_torus = [](Matrix& w) {
    for (index_t i = 0; i < w.size(); ++i)
      w.data()[i] = w.data()[i] - std::floor(w.data()[i]);
  };
  to_torus(entities_.mutable_weights());
  to_torus(relations_.mutable_weights());
}

Variable DenseTorusE::distance(std::span<const Triplet> batch) {
  const BatchIndices idx = split_indices(batch);
  Variable h = autograd::gather(entities_.var(), idx.heads);
  Variable t = autograd::gather(entities_.var(), idx.tails);
  Variable r = autograd::gather(relations_.var(), idx.rels);
  Variable hr = autograd::add(h, r);
  Variable hrt = autograd::sub(hr, t);
  return config_.dissimilarity == Dissimilarity::kL2
             ? autograd::row_squared_l2_torus(hrt)
             : autograd::row_l1_torus(hrt);
}

Variable DenseTorusE::loss(std::span<const Triplet> pos,
                           std::span<const Triplet> neg) {
  return ranking_loss(distance(pos), distance(neg), config_);
}

std::vector<float> DenseTorusE::score(std::span<const Triplet> batch) const {
  const Matrix& e = entities_.weights();
  const Matrix& r = relations_.weights();
  const index_t d = e.cols();
  std::vector<float> out(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Triplet& t = batch[i];
    const float* h = e.row(t.head);
    const float* rv = r.row(t.relation);
    const float* tl = e.row(t.tail);
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) {
      const float x = h[j] + rv[j] - tl[j];
      const float f = x - std::floor(x);
      const float m = f < 0.5f ? f : 1.0f - f;
      acc += config_.dissimilarity == Dissimilarity::kL2 ? m * m : m;
    }
    out[i] = acc;
  }
  return out;
}

std::vector<autograd::Variable> DenseTorusE::params() {
  return {entities_.var(), relations_.var()};
}

}  // namespace sptx::baseline
