// Additional translational models in the sparse formulation.
//
// §1 and the conclusion state the approach "can be extended to accelerate
// other translation-based models (such as TransC, TransM, etc.)", Table 2
// lists their score functions, and Figure 2 profiles TransD. These four
// close that set:
//
//  * SpTransD (Ji et al., 2015) — dynamic mapping via projection vectors:
//      h⊥ = h + (h_pᵀh) r_p,  t⊥ = t + (t_pᵀt) r_p,
//      score ||h⊥ + r − t⊥||.
//    Rearranged: (h − t) + r + ((h_pᵀh) − (t_pᵀt)) r_p — one fused ht SpMM
//    plus per-side selection SpMMs for the projection dots.
//  * SpTransA (Xiao et al., 2015) — adaptive metric |hrt|ᵀ W_r |hrt|. We
//    implement the standard diagonal-W_r variant: score Σ_j w_rj·hrt_j²
//    with w_r ≥ 0 enforced after each step (DESIGN.md notes the
//    full-matrix → diagonal substitution).
//  * SpTransC (Lv et al., 2018) — score ||h + r − t||₂² (Table 2's
//    expression; the concept-sphere constraints of the full paper are out
//    of scope here).
//  * SpTransM (Fan et al., 2014) — score w_r·||h + r − t|| with one
//    learnable scalar weight per relation.
//
// All hrt-shaped models reuse SpTransE's stacked [entities; relations]
// table and its single fused SpMM.
#pragma once

#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"

namespace sptx::models {

class SpTransD final : public ScoringCoreModel {
 public:
  SpTransD(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);
  std::string name() const override { return "SpTransD"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;       // N × d
  nn::EmbeddingTable entity_proj_;    // N × d  (h_p / t_p)
  nn::EmbeddingTable relations_;      // R × d
  nn::EmbeddingTable relation_proj_;  // R × d  (r_p)
};

class SpTransA final : public ScoringCoreModel {
 public:
  SpTransA(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);
  std::string name() const override { return "SpTransA"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  /// Candidates rank by the score itself: Σ_j w_rj (q − x)_j² with the
  /// per-relation diagonal metric as probe weights (w ≥ 0 via post_step).
  std::optional<AnnSupport> ann_support() const override;
  void ann_query(bool corrupt_tail, std::int64_t anchor, std::int64_t relation,
                 float* q) const override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable ent_rel_;  // stacked [entities; relations]
  nn::EmbeddingTable metric_;   // R × d diagonal metric weights (≥ 0)
};

class SpTransC final : public ScoringCoreModel {
 public:
  SpTransC(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);
  std::string name() const override { return "SpTransC"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  /// Score is ||q − x||₂² — monotone in L2, so an L2 probe is exact.
  std::optional<AnnSupport> ann_support() const override;
  void ann_query(bool corrupt_tail, std::int64_t anchor, std::int64_t relation,
                 float* q) const override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable ent_rel_;
};

class SpTransM final : public ScoringCoreModel {
 public:
  SpTransM(index_t num_entities, index_t num_relations,
           const ModelConfig& config, Rng& rng);
  std::string name() const override { return "SpTransM"; }
  sparse::ScoringRecipe recipe() const override;
  autograd::Variable forward(const sparse::CompiledBatch& batch) override;
  autograd::Variable fused_forward(const sparse::CompiledBatch& batch) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  /// Score is w_r·||q − x|| with w_r ≥ 0 constant across one query's
  /// candidates — rank-preserved by the unweighted config-norm probe.
  std::optional<AnnSupport> ann_support() const override;
  void ann_query(bool corrupt_tail, std::int64_t anchor, std::int64_t relation,
                 float* q) const override;

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable ent_rel_;
  nn::EmbeddingTable rel_weight_;  // R × 1 scalar weights (≥ 0)
};

}  // namespace sptx::models
