// Model interface shared by the sparse (SpTransX) and dense (baseline)
// implementations.
//
// A model owns its parameter tables and exposes:
//  * loss(pos, neg)  — build the differentiable margin-ranking loss for a
//    batch of positives and index-aligned negatives (the training op);
//  * score(batch)    — fast non-autograd scoring for evaluation;
//  * params()        — leaf Variables for the optimizer;
//  * post_step()     — per-batch constraints (entity renormalisation for
//    TransE-family, unit normals for TransH), over every row or over the
//    rows a batch touched.
// Scores are distances for translational models (lower = more plausible)
// and similarities for the semiring models (higher = better);
// higher_is_better() tells the evaluator which way to rank.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/autograd/ops.hpp"
#include "src/autograd/variable.hpp"
#include "src/common/rng.hpp"
#include "src/kernels/fused.hpp"
#include "src/kg/triplet.hpp"
#include "src/sparse/plan_cache.hpp"

namespace sptx::models {

enum class Dissimilarity { kL1, kL2 };

/// The fused kernels' norm tag for a dissimilarity (one conversion, shared
/// by every family's fused_forward and score).
inline kernels::Norm fused_norm(Dissimilarity d) {
  return d == Dissimilarity::kL2 ? kernels::Norm::kL2 : kernels::Norm::kL1;
}

/// Whether a fused node's backward must run: the fused scatter writes every
/// parent table in one pass, so it runs when ANY parent is trainable (a
/// frozen table then receives gradient rows nothing consumes — harmless,
/// and the trainable parents stay correct, unlike gating on parent 0).
inline bool fused_backward_needed(const autograd::Node& n) {
  for (const auto& p : n.parents()) {
    if (p->requires_grad()) return true;
  }
  return false;
}

/// Training objective built inside each model's loss().
enum class LossType {
  kMarginRanking,  // §5.3's MarginRankingLoss (hinge)
  kLogistic,       // smooth softplus ranking loss
};

/// Hyperparameters shared across models (Table 4 defaults are set per
/// experiment in the bench harness; these are the library defaults).
struct ModelConfig {
  index_t dim = 128;       // entity embedding size
  index_t rel_dim = 128;   // relation space size (TransR / TransH d_r)
  float margin = 0.5f;     // §5.3 margin
  Dissimilarity dissimilarity = Dissimilarity::kL2;
  LossType loss = LossType::kMarginRanking;
  bool normalize_entities = true;
};

/// Ranking loss dispatch shared by every model.
inline autograd::Variable ranking_loss(const autograd::Variable& pos,
                                       const autograd::Variable& neg,
                                       const ModelConfig& config) {
  return config.loss == LossType::kMarginRanking
             ? autograd::margin_ranking_loss(pos, neg, config.margin)
             : autograd::logistic_ranking_loss(pos, neg, config.margin);
}

/// How a parameter matrix's rows are indexed (sparse/row_support.hpp):
/// drives the row-sparse optimizer step, post_step(support) and DDP's
/// sparse all-reduce.
using ParamIndexSpace = sparse::ParamIndexSpace;

/// Probe geometry for ANN-accelerated top-k serving (serve/ann_index.hpp):
/// which matrix holds the entity points (rows [0, num_entities) are the
/// candidates) and how a composed query row ranks against them. The
/// contract is *rank-preserving*, not score-preserving — ordering entities
/// by the probe metric against ann_query()'s row must equal ordering them
/// by score() for the same (anchor, relation) — because returned scores
/// always come from an exact re-rank through score(); the probe only
/// selects candidates.
struct AnnSupport {
  /// Entity point table. Rows [0, num_entities) are the candidate points;
  /// families with stacked [entities; relations] tables expose the whole
  /// stack and the index builder reads only the entity prefix.
  const Matrix* table = nullptr;
  /// Distance families: candidates rank by ||q − x|| under this norm
  /// (lower = better).
  kernels::Norm norm = kernels::Norm::kL2;
  /// Similarity families rank by ⟨q, x⟩ (higher = better) instead.
  bool inner_product = false;
  /// Optional R×d per-relation diagonal metric (TransA): the probe distance
  /// is Σ_j w_rj (q_j − x_j)². Null for unweighted families.
  const Matrix* probe_weights = nullptr;
};

class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual std::string name() const = 0;

  /// Margin-ranking loss over a batch; `neg` is index-aligned with `pos`
  /// (one pre-generated negative per positive, §5.3).
  virtual autograd::Variable loss(std::span<const Triplet> pos,
                                  std::span<const Triplet> neg) = 0;

  /// Non-autograd scores for evaluation/link prediction.
  virtual std::vector<float> score(std::span<const Triplet> batch) const = 0;

  virtual bool higher_is_better() const { return false; }

  virtual std::vector<autograd::Variable> params() = 0;

  /// Index space of each params() entry, aligned by position. A row whose
  /// declared space does not cover it must never receive gradient: the
  /// trainer's row-sparse step neither updates nor clears it (the first
  /// batch of every train() call checks this and throws on a residue). The
  /// default infers from row counts — N rows → entity-indexed, R rows →
  /// relation-indexed, N+R rows → the stacked [entities; relations] layout —
  /// which is exact for every model family in this library. Ambiguous counts
  /// (a dataset where N == R) and unrecognised shapes classify as kDense,
  /// which is always safe. Models with exotic layouts should override.
  virtual std::vector<ParamIndexSpace> param_index_spaces();

  /// Apply model constraints (entity renormalisation, unit normals,
  /// non-negative metrics) after an optimizer step, to every row.
  void post_step() { constrain(nullptr); }

  /// The row-sparse form the trainer calls after Optimizer::step(support):
  /// constraints on entity rows visit only the entities `touched` marks.
  /// Equal to post_step() bit for bit provided every unmarked entity row is
  /// unchanged since it was last constrained — renormalisation skips rows
  /// whose norm is already 1 within float error (normalize_l2), so a
  /// second pass over an unchanged row is a no-op. train() therefore calls
  /// post_step() after its first batch (and whenever the optimizer moved
  /// every row), and this form otherwise.
  void post_step(const sparse::RowSupport& touched) { constrain(&touched); }

  /// Probe geometry for the ANN serving path, or nullopt when no
  /// rank-preserving single-table transform exists for the family (TorusE's
  /// wraparound metric, the relation-dependent candidate projections of
  /// TransH/TransR/TransD, the dense baselines) — serving then brute-forces
  /// the candidate scan, which is always correct.
  virtual std::optional<AnnSupport> ann_support() const { return std::nullopt; }

  /// Compose the probe query row for (anchor, relation) into `q`
  /// (ann_support()->table->cols() floats): the point whose probe-metric
  /// neighborhood holds the best-scoring candidates for (anchor, relation, ?)
  /// when `corrupt_tail`, (?, relation, anchor) otherwise. Only meaningful —
  /// and only called — when ann_support() is engaged.
  virtual void ann_query(bool corrupt_tail, std::int64_t anchor,
                         std::int64_t relation, float* q) const;

  index_t num_entities() const { return num_entities_; }
  index_t num_relations() const { return num_relations_; }

 protected:
  KgeModel(index_t num_entities, index_t num_relations, ModelConfig config)
      : num_entities_(num_entities),
        num_relations_(num_relations),
        config_(config) {}

  /// The constraint pass behind both post_step() forms; `touched` is null
  /// for every row. Relation-sized tables may ignore it (they are small).
  virtual void constrain(const sparse::RowSupport* /*touched*/) {}

  index_t num_entities_;
  index_t num_relations_;
  ModelConfig config_;
};

/// Base for the sparse model families: the forward pass is a ScoringRecipe
/// (which incidence builders the batch needs — pure data, compiled by
/// sparse::CompiledBatch possibly in a prefetch task) plus a scoring core
/// (the model-specific SpMMs and reduction over the pre-built structures).
/// distance() and loss() dedupe here: subclasses keep only recipe(),
/// forward(), the non-autograd score() and constrain().
///
/// forward() returns a ranking-ready (M×1) column — distance-like, lower =
/// more plausible; similarity models negate inside their core so one
/// margin-ranking loss drives every family. score() keeps each model's
/// natural sign for evaluation (see higher_is_better).
class ScoringCoreModel : public KgeModel {
 public:
  /// Which incidence structures forward() consumes. Drives plan
  /// compilation; needs no model state beyond the config.
  virtual sparse::ScoringRecipe recipe() const = 0;

  /// The scoring core over a compiled batch.
  virtual autograd::Variable forward(const sparse::CompiledBatch& batch) = 0;

  /// Fused single-node forward (src/kernels): the same score column as
  /// forward(), but as ONE autograd node whose backward scatters gradients
  /// straight into the parameter tables — no add/sub/norm/spmm backward
  /// chain, no intermediate M×d matrices. Families without fused kernels
  /// (the semiring models, whose score op is already one fused node) return
  /// an undefined Variable. The storage backing the batch's triplets must
  /// outlive backward(); implementations capture the plan's owned triplets
  /// so cached/staged plans satisfy this automatically.
  virtual autograd::Variable fused_forward(const sparse::CompiledBatch&) {
    return {};
  }

  /// The dispatch every consumer goes through: fused_forward() when the
  /// SPTX_FUSED registry knob allows it (auto/on, the default) and the
  /// family provides kernels, the autograd-graph forward() otherwise
  /// (SPTX_FUSED=off keeps the historical path bit-identical).
  autograd::Variable run_forward(const sparse::CompiledBatch& batch);

  /// Span path: compiles an ephemeral plan, then runs the core. Kept for
  /// external callers and as the reference the compiled-plan forward is
  /// tested against (ForwardOverPlanMatchesSpanDistance).
  autograd::Variable distance(std::span<const Triplet> batch);

  /// Ranking loss over two compiled batches — the staged trainer's path.
  autograd::Variable loss(const sparse::CompiledBatch& pos,
                          const sparse::CompiledBatch& neg);

  autograd::Variable loss(std::span<const Triplet> pos,
                          std::span<const Triplet> neg) final;

 protected:
  using KgeModel::KgeModel;
};

/// Factory over {"TransE","TransR","TransH","TorusE"} sparse variants plus
/// {"DistMult","ComplEx","RotatE"} semiring extensions.
std::unique_ptr<KgeModel> make_sparse_model(const std::string& name,
                                            index_t num_entities,
                                            index_t num_relations,
                                            const ModelConfig& config,
                                            Rng& rng);

/// Factory over the dense gather/scatter baselines (TorchKGE-style):
/// {"TransE","TransR","TransH","TorusE"}.
std::unique_ptr<KgeModel> make_dense_model(const std::string& name,
                                           index_t num_entities,
                                           index_t num_relations,
                                           const ModelConfig& config,
                                           Rng& rng);

}  // namespace sptx::models
