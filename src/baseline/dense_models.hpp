// Dense gather/scatter baselines — the cost structure of TorchKGE/PyG.
//
// These implement the SAME four score functions as the SpTransX models but
// the way established KGE frameworks compute them (§1's bottleneck list):
//  * forward: one embedding gather per role (head, tail, relation, plus
//    normals/transfer vectors), each materialising an M×d intermediate;
//  * score expression built from separate elementwise ops (h+r, then −t,
//    …), each allocating another intermediate;
//  * backward: per-row scatter-add for every gather — the fine-grained
//    "EmbeddingBackward" pattern Figure 2 shows dominating training time;
//  * TransR projects h and t separately (two per-relation GEMMs instead of
//    the rearranged single projection of (h−t));
//  * TransH computes h⊥ and t⊥ independently (two dots/scalings/subs).
//
// The comparison between these and the SpTransX models is the paper's
// headline experiment (Figure 7/8, Tables 1/5/6/7). Both run on the same
// autograd engine and kernels library, so the measured difference is the
// formulation, not incidental implementation quality.
#pragma once

#include "src/models/model.hpp"
#include "src/nn/embedding.hpp"

namespace sptx::baseline {

using models::Dissimilarity;
using models::KgeModel;
using models::ModelConfig;
using models::ParamIndexSpace;

class DenseTransE final : public KgeModel {
 public:
  DenseTransE(index_t num_entities, index_t num_relations,
              const ModelConfig& config, Rng& rng);
  std::string name() const override { return "DenseTransE"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  autograd::Variable distance(std::span<const Triplet> batch);

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;   // separate tables, TorchKGE-style
  nn::EmbeddingTable relations_;
};

class DenseTransR final : public KgeModel {
 public:
  DenseTransR(index_t num_entities, index_t num_relations,
              const ModelConfig& config, Rng& rng);
  std::string name() const override { return "DenseTransR"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;
  std::vector<ParamIndexSpace> param_index_spaces() override;

  autograd::Variable distance(std::span<const Triplet> batch);

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;
  nn::EmbeddingTable relations_;
  nn::EmbeddingTable projections_;
};

class DenseTransH final : public KgeModel {
 public:
  DenseTransH(index_t num_entities, index_t num_relations,
              const ModelConfig& config, Rng& rng);
  std::string name() const override { return "DenseTransH"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  autograd::Variable distance(std::span<const Triplet> batch);

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;
  nn::EmbeddingTable normals_;
  nn::EmbeddingTable transfers_;
};

/// Dense TransD (Figure 2 profiles it on TorchKGE): six gathers and two
/// fully separate hyper-projection chains for h⊥ and t⊥.
class DenseTransD final : public KgeModel {
 public:
  DenseTransD(index_t num_entities, index_t num_relations,
              const ModelConfig& config, Rng& rng);
  std::string name() const override { return "DenseTransD"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  autograd::Variable distance(std::span<const Triplet> batch);

 protected:
  void constrain(const sparse::RowSupport* touched) override;

 private:
  nn::EmbeddingTable entities_;
  nn::EmbeddingTable entity_proj_;
  nn::EmbeddingTable relations_;
  nn::EmbeddingTable relation_proj_;
};

class DenseTorusE final : public KgeModel {
 public:
  DenseTorusE(index_t num_entities, index_t num_relations,
              const ModelConfig& config, Rng& rng);
  std::string name() const override { return "DenseTorusE"; }
  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) override;
  std::vector<float> score(std::span<const Triplet> batch) const override;
  std::vector<autograd::Variable> params() override;

  autograd::Variable distance(std::span<const Triplet> batch);

 private:
  nn::EmbeddingTable entities_;
  nn::EmbeddingTable relations_;
};

}  // namespace sptx::baseline
