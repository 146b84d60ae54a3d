// Optimizers and learning-rate schedulers.
//
// The paper trains with a fixed learning rate (0.0004, §5.3) and, for the
// accuracy study of Appendix E, a learning-rate scheduler. SGD covers the
// timing experiments; Adagrad is provided because per-coordinate scaling is
// the standard choice for sparse-gradient embedding training, and a
// StepLR / CosineLR pair covers the scheduler runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/autograd/variable.hpp"
#include "src/sparse/row_support.hpp"

namespace sptx::nn {

/// Interface over a set of parameters (autograd leaf Variables).
///
/// Two step forms share one update rule per optimizer:
///  * step() — every row of every parameter; gradients are left as they
///    are (call zero_grad() between batches). The reference form.
///  * step(touched) — the trainer's row-sparse form: only the rows the
///    batch's RowSupport covers through each parameter's index space
///    (set_index_spaces) are updated, split across pool tasks, and their
///    gradients are cleared in the same pass, so no zero_grad() is needed
///    between batches. SGD without momentum and Adagrad apply an exact zero
///    update to a row with zero gradient, so when every row outside the
///    support has zero gradient (verify_support_exhausts_grads checks it)
///    the weights and slot state come out bit-identical to step().
///    Weight decay, gradient clipping and momentum move every row, so with
///    any of them set — and for every kDense parameter — step(touched)
///    updates and clears all rows.
class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Variable> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  /// Apply one update from the accumulated gradients to every row.
  void step() { update(nullptr); }

  /// Apply one update to the rows `touched` covers and clear their
  /// gradients (see the class comment).
  void step(const sparse::RowSupport& touched) { update(&touched); }

  /// Index space of each parameter, aligned with params() — normally
  /// models::KgeModel::param_index_spaces(). Until set, every parameter is
  /// kDense and step(touched) visits all rows.
  void set_index_spaces(std::vector<sparse::ParamIndexSpace> spaces);

  /// Stable identifier for checkpointing ("sgd", "adagrad").
  virtual std::string kind() const = 0;

  /// Per-parameter slot state (momentum velocity, Adagrad accumulators) for
  /// checkpointing. May be empty when slots are lazily allocated and no
  /// step has run yet.
  virtual std::vector<Matrix> export_state() const { return {}; }

  /// Restore slot state captured by export_state on an identically
  /// configured optimizer. Throws Error{kCorruptCheckpoint} on a
  /// shape/count mismatch.
  virtual void import_state(std::vector<Matrix> state) = 0;

  /// Clear gradients (call between batches when stepping with step()).
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  /// Decoupled L2 weight decay applied before the gradient step
  /// (w ← (1 − lr·λ)·w), 0 disables.
  void set_weight_decay(float lambda) { weight_decay_ = lambda; }
  /// Global gradient-norm clip across all parameters, 0 disables.
  void set_grad_clip_norm(float max_norm) { grad_clip_norm_ = max_norm; }
  const std::vector<autograd::Variable>& params() const { return params_; }

  /// Whether step(touched) leaves untouched rows alone: false once weight
  /// decay or clipping is on (they move or rescale every row), and for SGD
  /// with momentum. When false every row may move, so constraints such as
  /// renormalisation must cover every row too.
  virtual bool row_sparse() const {
    return weight_decay_ == 0.0f && grad_clip_norm_ == 0.0f;
  }

 protected:
  /// The update behind both step forms. `touched` null: every row,
  /// gradients kept. Non-null: the covered rows (all rows unless
  /// row_sparse()), gradients of every visited row cleared.
  virtual void update(const sparse::RowSupport* touched) = 0;

  /// The rows parameter i's update visits for `touched` (null = all).
  sparse::ParamRows rows_for(std::size_t i,
                             const sparse::RowSupport* touched) const;

  /// Weight decay + clipping, called by concrete steps before the update.
  void apply_constraints();

  std::vector<autograd::Variable> params_;
  std::vector<sparse::ParamIndexSpace> spaces_;  // empty = all kDense
  float lr_;
  float weight_decay_ = 0.0f;
  float grad_clip_norm_ = 0.0f;
};

/// Plain SGD: w ← w − lr · g (optional classical momentum).
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<autograd::Variable> params, float lr, float momentum = 0.0f);
  std::string kind() const override { return "sgd"; }
  std::vector<Matrix> export_state() const override { return velocity_; }
  void import_state(std::vector<Matrix> state) override;
  /// Momentum decays the velocity of every row, touched or not.
  bool row_sparse() const override {
    return momentum_ == 0.0f && Optimizer::row_sparse();
  }

 protected:
  void update(const sparse::RowSupport* touched) override;

 private:
  float momentum_;
  std::vector<Matrix> velocity_;  // allocated lazily when momentum > 0
};

/// Adagrad: w ← w − lr · g / (√G + ε), G accumulating squared gradients.
class Adagrad final : public Optimizer {
 public:
  Adagrad(std::vector<autograd::Variable> params, float lr,
          float eps = 1e-10f);
  std::string kind() const override { return "adagrad"; }
  std::vector<Matrix> export_state() const override { return accum_; }
  void import_state(std::vector<Matrix> state) override;

 protected:
  void update(const sparse::RowSupport* touched) override;

 private:
  float eps_;
  std::vector<Matrix> accum_;
};

/// The one-time guard behind the row-sparse step (trainer and both DDP
/// executors run it once per run): after the rows a batch's support covers
/// have been cleared, every gradient buffer must be identically zero. A
/// residue means `model_name`'s loss wrote gradient outside the rows its
/// param_index_spaces() declare (e.g. a full-table regulariser on an
/// entity-shaped parameter), which the row-sparse step would neither apply
/// nor clear. Throws Error (kPrecondition). Costs one scan of the gradients.
void verify_support_exhausts_grads(std::vector<autograd::Variable>& params,
                                   const std::string& model_name);

/// Multiplies the optimizer lr by `gamma` every `step_size` epochs.
class StepLr {
 public:
  StepLr(Optimizer& opt, int step_size, float gamma)
      : opt_(opt), base_lr_(opt.lr()), step_size_(step_size), gamma_(gamma) {}
  void on_epoch(int epoch);

 private:
  Optimizer& opt_;
  float base_lr_;
  int step_size_;
  float gamma_;
};

/// Cosine annealing from the base lr to `min_lr` over `total_epochs`.
class CosineLr {
 public:
  CosineLr(Optimizer& opt, int total_epochs, float min_lr = 0.0f)
      : opt_(opt),
        base_lr_(opt.lr()),
        total_epochs_(total_epochs),
        min_lr_(min_lr) {}
  void on_epoch(int epoch);

 private:
  Optimizer& opt_;
  float base_lr_;
  int total_epochs_;
  float min_lr_;
};

}  // namespace sptx::nn
