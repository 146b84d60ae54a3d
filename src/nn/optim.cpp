#include "src/nn/optim.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/profiling/flops.hpp"
#include "src/runtime/parallel.hpp"

namespace sptx::nn {

namespace {

/// Shared import validation: state must be empty (no slots yet) or one
/// matrix per parameter with matching shapes.
void check_slot_state(const std::vector<autograd::Variable>& params,
                      const std::vector<Matrix>& state, const char* kind) {
  if (state.empty()) return;
  SPTX_CHECK_CODE(state.size() == params.size(), ErrorCode::kCorruptCheckpoint,
                  kind << " state has " << state.size() << " slots, model has "
                       << params.size() << " parameters");
  for (std::size_t i = 0; i < params.size(); ++i)
    SPTX_CHECK_CODE(state[i].same_shape(params[i].value()),
                    ErrorCode::kCorruptCheckpoint,
                    kind << " slot " << i << " shape " << state[i].shape_str()
                         << " vs parameter " << params[i].value().shape_str());
}

/// Floats per pool task in the row-parallel step: 256 KB of weights (plus
/// as much gradient and slot state) per task amortises the pool's dispatch
/// cost; a table smaller than one task (any test-scale model) is stepped
/// inline on the calling thread.
constexpr index_t kFloatsPerTask = index_t{1} << 16;

/// Run `fn(row)` once for every row of an n×d parameter that `rows`
/// covers, row chunks split across pool tasks (each row belongs to exactly
/// one task). Returns the number of rows visited.
template <typename RowFn>
index_t for_each_row(const sparse::ParamRows& rows, index_t n, index_t d,
                     const RowFn& fn) {
  const index_t per_task = std::max<index_t>(1, kFloatsPerTask / d);
  std::atomic<index_t> visited{0};
  runtime::parallel_for(
      0, (n + per_task - 1) / per_task,
      [&](index_t chunk) {
        const index_t end = std::min(n, (chunk + 1) * per_task);
        index_t local = 0;
        for (index_t r = chunk * per_task; r < end; ++r) {
          if (!rows.covers(r)) continue;
          fn(r);
          ++local;
        }
        visited.fetch_add(local, std::memory_order_relaxed);
      },
      /*grain=*/1);
  return visited.load(std::memory_order_relaxed);
}

}  // namespace

void Optimizer::set_index_spaces(std::vector<sparse::ParamIndexSpace> spaces) {
  SPTX_CHECK(spaces.size() == params_.size(),
             "index spaces for " << spaces.size()
                                 << " parameters, optimizer has "
                                 << params_.size());
  spaces_ = std::move(spaces);
}

sparse::ParamRows Optimizer::rows_for(std::size_t i,
                                      const sparse::RowSupport* touched) const {
  const bool sparse_rows =
      touched != nullptr && row_sparse() && !spaces_.empty();
  return sparse::ParamRows(
      sparse_rows ? touched : nullptr,
      sparse_rows ? spaces_[i] : sparse::ParamIndexSpace::kDense,
      params_[i].value().rows());
}

void Optimizer::apply_constraints() {
  if (grad_clip_norm_ > 0.0f) {
    double sq = 0.0;
    for (auto& p : params_) {
      if (p.has_grad()) sq += static_cast<double>(p.grad().squared_norm());
    }
    const double norm = std::sqrt(sq);
    if (norm > grad_clip_norm_) {
      const float scale = grad_clip_norm_ / static_cast<float>(norm);
      for (auto& p : params_) {
        if (p.has_grad()) p.grad().scale_(scale);
      }
    }
  }
  if (weight_decay_ > 0.0f) {
    const float shrink = 1.0f - lr_ * weight_decay_;
    for (auto& p : params_) p.mutable_value().scale_(shrink);
  }
}

void verify_support_exhausts_grads(std::vector<autograd::Variable>& params,
                                   const std::string& model_name) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].has_grad()) continue;
    SPTX_CHECK(params[i].grad().max_abs() == 0.0f,
               model_name << " parameter " << i
                          << " has gradient outside its declared "
                             "ParamIndexSpace row support; override "
                             "param_index_spaces() (kDense is always safe)");
  }
}

Sgd::Sgd(std::vector<autograd::Variable> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::update(const sparse::RowSupport* touched) {
  apply_constraints();
  if (momentum_ > 0.0f && velocity_.empty()) {
    velocity_.reserve(params_.size());
    for (auto& p : params_)
      velocity_.emplace_back(p.value().rows(), p.value().cols());
  }
  const bool clear = touched != nullptr;
  const bool vec = simd_enabled();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    Matrix& g = p.grad();
    Matrix& w = p.mutable_value();
    Matrix* v = momentum_ > 0.0f ? &velocity_[i] : nullptr;
    const index_t d = g.cols();
    const index_t visited = for_each_row(
        rows_for(i, touched), g.rows(), d, [&](index_t r) {
          float* gr = g.row(r);
          if (v != nullptr) {
            float* vr = v->row(r);
            simd::scale(vr, d, momentum_, vec);
            simd::axpy(vr, gr, 1.0f, d, vec);
            simd::axpy(w.row(r), vr, -lr_, d, vec);
          } else {
            simd::axpy(w.row(r), gr, -lr_, d, vec);
          }
          if (clear)
            std::memset(gr, 0, static_cast<std::size_t>(d) * sizeof(float));
        });
    profiling::count_flops((v != nullptr ? 5 : 2) * visited * d);
  }
}

void Sgd::import_state(std::vector<Matrix> state) {
  check_slot_state(params_, state, "sgd");
  velocity_ = std::move(state);
}

Adagrad::Adagrad(std::vector<autograd::Variable> params, float lr, float eps)
    : Optimizer(std::move(params), lr), eps_(eps) {
  accum_.reserve(params_.size());
  for (auto& p : params_)
    accum_.emplace_back(p.value().rows(), p.value().cols());
}

void Adagrad::update(const sparse::RowSupport* touched) {
  apply_constraints();
  const bool clear = touched != nullptr;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    Matrix& g = p.grad();
    Matrix& acc = accum_[i];
    Matrix& w = p.mutable_value();
    const index_t d = g.cols();
    const index_t visited = for_each_row(
        rows_for(i, touched), g.rows(), d, [&](index_t r) {
          float* gr = g.row(r);
          float* ar = acc.row(r);
          float* wr = w.row(r);
          for (index_t k = 0; k < d; ++k) {
            const float gk = gr[k];
            ar[k] += gk * gk;
            wr[k] -= lr_ * gk / (std::sqrt(ar[k]) + eps_);
          }
          if (clear)
            std::memset(gr, 0, static_cast<std::size_t>(d) * sizeof(float));
        });
    profiling::count_flops(5 * visited * d);
  }
}

void Adagrad::import_state(std::vector<Matrix> state) {
  check_slot_state(params_, state, "adagrad");
  // Adagrad allocates its accumulators eagerly, so empty state (a
  // checkpoint taken before any step) keeps the zero-initialised slots.
  if (!state.empty()) accum_ = std::move(state);
}

void StepLr::on_epoch(int epoch) {
  const int decays = step_size_ > 0 ? epoch / step_size_ : 0;
  opt_.set_lr(base_lr_ * std::pow(gamma_, static_cast<float>(decays)));
}

void CosineLr::on_epoch(int epoch) {
  if (total_epochs_ <= 1) return;
  const float t = static_cast<float>(epoch) /
                  static_cast<float>(total_epochs_ - 1);
  const float cos_term = 0.5f * (1.0f + std::cos(3.14159265358979f * t));
  opt_.set_lr(min_lr_ + (base_lr_ - min_lr_) * cos_term);
}

}  // namespace sptx::nn
