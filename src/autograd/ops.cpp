#include "src/autograd/ops.hpp"

#include <cmath>

#include "src/profiling/flops.hpp"
#include "src/profiling/timer.hpp"
#include "src/runtime/parallel.hpp"
#include "src/sparse/spmm.hpp"

namespace sptx::autograd {

namespace {
constexpr float kNormEps = 1e-12f;

Matrix& parent_grad(Node& n, std::size_t i) {
  return n.parents()[i]->grad();
}
const Matrix& parent_value(Node& n, std::size_t i) {
  return n.parents()[i]->value();
}
bool parent_needs_grad(Node& n, std::size_t i) {
  return n.parents()[i]->requires_grad();
}
}  // namespace

// ---------------------------------------------------------------- add / sub

Variable add(const Variable& a, const Variable& b) {
  profiling::ScopedHotspot hotspot("sptx::add");
  Matrix out = sptx::add(a.value(), b.value());
  return Variable::op(
      std::move(out), {a, b},
      [](Node& n) {
        if (parent_needs_grad(n, 0)) parent_grad(n, 0).add_(n.grad());
        if (parent_needs_grad(n, 1)) parent_grad(n, 1).add_(n.grad());
      },
      "sptx::add_backward");
}

Variable sub(const Variable& a, const Variable& b) {
  profiling::ScopedHotspot hotspot("sptx::sub");
  Matrix out = sptx::sub(a.value(), b.value());
  return Variable::op(
      std::move(out), {a, b},
      [](Node& n) {
        if (parent_needs_grad(n, 0)) parent_grad(n, 0).add_(n.grad());
        if (parent_needs_grad(n, 1)) parent_grad(n, 1).sub_(n.grad());
      },
      "sptx::sub_backward");
}

Variable mul(const Variable& a, const Variable& b) {
  profiling::ScopedHotspot hotspot("sptx::mul");
  Matrix out = hadamard(a.value(), b.value());
  return Variable::op(
      std::move(out), {a, b},
      [](Node& n) {
        if (parent_needs_grad(n, 0)) {
          Matrix da = hadamard(n.grad(), parent_value(n, 1));
          parent_grad(n, 0).add_(da);
        }
        if (parent_needs_grad(n, 1)) {
          Matrix db = hadamard(n.grad(), parent_value(n, 0));
          parent_grad(n, 1).add_(db);
        }
      },
      "sptx::mul_backward");
}

Variable scale(const Variable& a, float s) {
  Matrix out = scaled(a.value(), s);
  return Variable::op(
      std::move(out), {a},
      [s](Node& n) {
        if (parent_needs_grad(n, 0)) parent_grad(n, 0).axpy_(s, n.grad());
      },
      "sptx::scale_backward");
}

// ------------------------------------------------------------------- spmm

Variable spmm(std::shared_ptr<const Csr> a, const Variable& x) {
  SPTX_CHECK(a != nullptr, "spmm: null sparse matrix");
  Matrix out = spmm_csr(*a, x.value());
  return Variable::op(
      std::move(out), {x},
      [a](Node& n) {
        if (parent_needs_grad(n, 0)) {
          // Appendix G: dX = Aᵀ · dC — one coarse transposed SpMM.
          spmm_csr_transposed_accumulate(*a, n.grad(), parent_grad(n, 0));
        }
      },
      "sptx::spmm_backward");
}

// ------------------------------------------------------------------ gather

Variable gather(const Variable& x,
                std::shared_ptr<const std::vector<index_t>> idx) {
  SPTX_CHECK(idx != nullptr, "gather: null index vector");
  profiling::ScopedHotspot hotspot("baseline::embedding_gather");
  const index_t m = static_cast<index_t>(idx->size());
  const index_t d = x.cols();
  Matrix out(m, d);
  for (index_t i = 0; i < m; ++i) {
    const index_t src = (*idx)[static_cast<std::size_t>(i)];
    SPTX_CHECK(src >= 0 && src < x.rows(), "gather index " << src);
    const float* srow = x.value().row(src);
    float* drow = out.row(i);
    for (index_t j = 0; j < d; ++j) drow[j] = srow[j];
  }
  return Variable::op(
      std::move(out), {x},
      [idx](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        // The EmbeddingBackward pattern of Figures 1(b)/2: PyTorch
        // materialises a zero matrix of the FULL table size, scatter-adds
        // the batch gradients into it row by row, then accumulates it into
        // the parameter gradient. The full-table temporary is what makes
        // this step both slow and memory-hungry in dense frameworks.
        Matrix& dx = parent_grad(n, 0);
        const Matrix& g = n.grad();
        const index_t gd = g.cols();
        Matrix scatter_buffer(dx.rows(), dx.cols());  // the zero matrix
        profiling::count_flops(g.size() + dx.size());
        for (index_t i = 0; i < g.rows(); ++i) {
          float* drow =
              scatter_buffer.row((*idx)[static_cast<std::size_t>(i)]);
          const float* grow = g.row(i);
          for (index_t j = 0; j < gd; ++j) drow[j] += grow[j];
        }
        dx.add_(scatter_buffer);
      },
      "baseline::embedding_backward_scatter");
}

// ----------------------------------------------------------------- norms
//
// The norm backward rules write dx row by row, each row from its own g and
// x rows only, so they run row chunks on the pool (runtime::parallel_rows)
// with each row's loop unchanged: bit-equal at any pool width.

Variable row_l2(const Variable& x) {
  profiling::ScopedHotspot hotspot("sptx::row_l2");
  Matrix out = row_l2_norm(x.value());
  // Keep norms by value for the backward rule (cheap: M floats).
  auto norms = std::make_shared<Matrix>(out);
  return Variable::op(
      std::move(out), {x},
      [norms](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        Matrix& dx = parent_grad(n, 0);
        const Matrix& xv = parent_value(n, 0);
        const Matrix& g = n.grad();
        profiling::count_flops(2 * xv.size());
        runtime::parallel_rows(xv.rows(), xv.cols(), [&](index_t i) {
          const float denom = std::max(norms->at(i, 0), kNormEps);
          const float s = g.at(i, 0) / denom;
          const float* xrow = xv.row(i);
          float* drow = dx.row(i);
          for (index_t j = 0; j < xv.cols(); ++j) drow[j] += s * xrow[j];
        });
      },
      "sptx::row_l2_backward (LinalgVectorNormBackward)");
}

Variable row_l1(const Variable& x) {
  profiling::ScopedHotspot hotspot("sptx::row_l1");
  Matrix out = row_l1_norm(x.value());
  return Variable::op(
      std::move(out), {x},
      [](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        Matrix& dx = parent_grad(n, 0);
        const Matrix& xv = parent_value(n, 0);
        const Matrix& g = n.grad();
        profiling::count_flops(xv.size());
        runtime::parallel_rows(xv.rows(), xv.cols(), [&](index_t i) {
          const float gi = g.at(i, 0);
          const float* xrow = xv.row(i);
          float* drow = dx.row(i);
          for (index_t j = 0; j < xv.cols(); ++j) {
            drow[j] += gi * (xrow[j] > 0.0f   ? 1.0f
                             : xrow[j] < 0.0f ? -1.0f
                                              : 0.0f);
          }
        });
      },
      "sptx::row_l1_backward");
}

Variable row_squared_l2(const Variable& x) {
  profiling::ScopedHotspot hotspot("sptx::row_squared_l2");
  Matrix out = sptx::row_squared_l2(x.value());
  return Variable::op(
      std::move(out), {x},
      [](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        Matrix& dx = parent_grad(n, 0);
        const Matrix& xv = parent_value(n, 0);
        const Matrix& g = n.grad();
        profiling::count_flops(2 * xv.size());
        runtime::parallel_rows(xv.rows(), xv.cols(), [&](index_t i) {
          const float s = 2.0f * g.at(i, 0);
          const float* xrow = xv.row(i);
          float* drow = dx.row(i);
          for (index_t j = 0; j < xv.cols(); ++j) drow[j] += s * xrow[j];
        });
      },
      "sptx::row_squared_l2_backward");
}

namespace {
// Wraparound component distance on the unit torus: x ↦ (frac, m) with
// m = min(frac, 1 − frac). dm/dx = +1 on [0, ½), −1 on (½, 1).
inline void torus_component(float x, float& m, float& dsign) {
  float f = x - std::floor(x);  // frac(x) ∈ [0, 1)
  if (f < 0.5f) {
    m = f;
    dsign = 1.0f;
  } else {
    m = 1.0f - f;
    dsign = -1.0f;
  }
}
}  // namespace

Variable row_squared_l2_torus(const Variable& x) {
  profiling::ScopedHotspot hotspot("sptx::l2_torus_dissimilarity");
  const Matrix& xv = x.value();
  Matrix out(xv.rows(), 1);
  profiling::count_flops(4 * xv.size());
  for (index_t i = 0; i < xv.rows(); ++i) {
    const float* xrow = xv.row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < xv.cols(); ++j) {
      float m, s;
      torus_component(xrow[j], m, s);
      acc += m * m;
    }
    out.at(i, 0) = acc;
  }
  return Variable::op(
      std::move(out), {x},
      [](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        Matrix& dx = parent_grad(n, 0);
        const Matrix& xb = parent_value(n, 0);
        const Matrix& g = n.grad();
        profiling::count_flops(4 * xb.size());
        for (index_t i = 0; i < xb.rows(); ++i) {
          const float gi = g.at(i, 0);
          const float* xrow = xb.row(i);
          float* drow = dx.row(i);
          for (index_t j = 0; j < xb.cols(); ++j) {
            float m, s;
            torus_component(xrow[j], m, s);
            drow[j] += gi * 2.0f * m * s;
          }
        }
      },
      "sptx::l2_torus_backward");
}

Variable row_l1_torus(const Variable& x) {
  profiling::ScopedHotspot hotspot("sptx::l1_torus_dissimilarity");
  const Matrix& xv = x.value();
  Matrix out(xv.rows(), 1);
  profiling::count_flops(3 * xv.size());
  for (index_t i = 0; i < xv.rows(); ++i) {
    const float* xrow = xv.row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < xv.cols(); ++j) {
      float m, s;
      torus_component(xrow[j], m, s);
      acc += m;
    }
    out.at(i, 0) = acc;
  }
  return Variable::op(
      std::move(out), {x},
      [](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        Matrix& dx = parent_grad(n, 0);
        const Matrix& xb = parent_value(n, 0);
        const Matrix& g = n.grad();
        for (index_t i = 0; i < xb.rows(); ++i) {
          const float gi = g.at(i, 0);
          const float* xrow = xb.row(i);
          float* drow = dx.row(i);
          for (index_t j = 0; j < xb.cols(); ++j) {
            float m, s;
            torus_component(xrow[j], m, s);
            drow[j] += gi * s;
          }
        }
      },
      "sptx::l1_torus_backward");
}

Variable row_dot(const Variable& a, const Variable& b) {
  profiling::ScopedHotspot hotspot("sptx::row_dot");
  Matrix out = sptx::row_dot(a.value(), b.value());
  return Variable::op(
      std::move(out), {a, b},
      [](Node& n) {
        const Matrix& g = n.grad();
        const Matrix& av = parent_value(n, 0);
        const Matrix& bv = parent_value(n, 1);
        profiling::count_flops(4 * av.size());
        if (parent_needs_grad(n, 0)) {
          Matrix& da = parent_grad(n, 0);
          for (index_t i = 0; i < av.rows(); ++i) {
            const float gi = g.at(i, 0);
            const float* brow = bv.row(i);
            float* drow = da.row(i);
            for (index_t j = 0; j < av.cols(); ++j) drow[j] += gi * brow[j];
          }
        }
        if (parent_needs_grad(n, 1)) {
          Matrix& db = parent_grad(n, 1);
          for (index_t i = 0; i < av.rows(); ++i) {
            const float gi = g.at(i, 0);
            const float* arow = av.row(i);
            float* drow = db.row(i);
            for (index_t j = 0; j < av.cols(); ++j) drow[j] += gi * arow[j];
          }
        }
      },
      "sptx::row_dot_backward");
}

Variable scale_rows(const Variable& col, const Variable& x) {
  SPTX_CHECK(col.cols() == 1 && col.rows() == x.rows(),
             "scale_rows: col must be " << x.rows() << "x1");
  profiling::ScopedHotspot hotspot("sptx::scale_rows");
  Matrix out(x.value());
  out.scale_rows_(col.value());
  return Variable::op(
      std::move(out), {col, x},
      [](Node& n) {
        const Matrix& g = n.grad();
        const Matrix& colv = parent_value(n, 0);
        const Matrix& xv = parent_value(n, 1);
        profiling::count_flops(4 * xv.size());
        if (parent_needs_grad(n, 0)) {
          Matrix& dcol = parent_grad(n, 0);
          for (index_t i = 0; i < xv.rows(); ++i) {
            const float* grow = g.row(i);
            const float* xrow = xv.row(i);
            float acc = 0.0f;
            for (index_t j = 0; j < xv.cols(); ++j) acc += grow[j] * xrow[j];
            dcol.at(i, 0) += acc;
          }
        }
        if (parent_needs_grad(n, 1)) {
          Matrix& dx = parent_grad(n, 1);
          for (index_t i = 0; i < xv.rows(); ++i) {
            const float s = colv.at(i, 0);
            const float* grow = g.row(i);
            float* drow = dx.row(i);
            for (index_t j = 0; j < xv.cols(); ++j) drow[j] += s * grow[j];
          }
        }
      },
      "sptx::scale_rows_backward");
}

Variable relation_project(const Variable& proj, const Variable& x,
                          std::shared_ptr<const std::vector<index_t>> rel,
                          index_t proj_rows) {
  SPTX_CHECK(rel != nullptr, "relation_project: null relation indices");
  SPTX_CHECK(static_cast<index_t>(rel->size()) == x.rows(),
             "relation_project: " << rel->size() << " relations for "
                                  << x.rows() << " rows");
  SPTX_CHECK(proj.value().rows() % proj_rows == 0,
             "relation_project: proj stack not a multiple of dr");
  profiling::ScopedHotspot hotspot("sptx::relation_project");
  const index_t de = x.cols();
  const index_t dr = proj_rows;
  const Matrix& mv = proj.value();
  Matrix out(x.rows(), dr);
  profiling::count_flops(2 * x.rows() * dr * de);
  for (index_t i = 0; i < x.rows(); ++i) {
    const index_t r = (*rel)[static_cast<std::size_t>(i)];
    const float* xrow = x.value().row(i);
    float* orow = out.row(i);
    for (index_t p = 0; p < dr; ++p) {
      const float* mrow = mv.row(r * dr + p);
      float acc = 0.0f;
      for (index_t q = 0; q < de; ++q) acc += mrow[q] * xrow[q];
      orow[p] = acc;
    }
  }
  return Variable::op(
      std::move(out), {proj, x},
      [rel, dr](Node& n) {
        const Matrix& g = n.grad();
        const Matrix& mb = parent_value(n, 0);
        const Matrix& xv = parent_value(n, 1);
        const index_t db = xv.cols();
        profiling::count_flops(4 * g.rows() * dr * db);
        if (parent_needs_grad(n, 0)) {
          Matrix& dm = parent_grad(n, 0);
          // dM_{rel_i} += g_i · x_iᵀ (outer product per triplet).
          for (index_t i = 0; i < g.rows(); ++i) {
            const index_t r = (*rel)[static_cast<std::size_t>(i)];
            const float* grow = g.row(i);
            const float* xrow = xv.row(i);
            for (index_t p = 0; p < dr; ++p) {
              float* mrow = dm.row(r * dr + p);
              const float gp = grow[p];
              for (index_t q = 0; q < db; ++q) mrow[q] += gp * xrow[q];
            }
          }
        }
        if (parent_needs_grad(n, 1)) {
          Matrix& dx = parent_grad(n, 1);
          // dx_i += M_{rel_i}ᵀ · g_i.
          for (index_t i = 0; i < g.rows(); ++i) {
            const index_t r = (*rel)[static_cast<std::size_t>(i)];
            const float* grow = g.row(i);
            float* drow = dx.row(i);
            for (index_t p = 0; p < dr; ++p) {
              const float* mrow = mb.row(r * dr + p);
              const float gp = grow[p];
              for (index_t q = 0; q < db; ++q) drow[q] += gp * mrow[q];
            }
          }
        }
      },
      "sptx::relation_project_backward");
}

// ------------------------------------------------------------------- loss

Variable margin_ranking_loss(const Variable& pos, const Variable& neg,
                             float margin) {
  SPTX_CHECK(pos.value().same_shape(neg.value()),
             "margin loss: " << pos.value().shape_str() << " vs "
                             << neg.value().shape_str());
  SPTX_CHECK(pos.cols() == 1, "margin loss expects score columns");
  profiling::ScopedHotspot hotspot("sptx::margin_ranking_loss");
  const index_t m = pos.rows();
  const Matrix& pv = pos.value();
  const Matrix& nv = neg.value();
  double acc = 0.0;
  for (index_t i = 0; i < m; ++i) {
    const float v = margin + pv.at(i, 0) - nv.at(i, 0);
    if (v > 0.0f) acc += v;
  }
  profiling::count_flops(3 * m);
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(acc / static_cast<double>(m));
  return Variable::op(
      std::move(out), {pos, neg},
      [margin, m](Node& n) {
        const float g = n.grad().at(0, 0) / static_cast<float>(m);
        const Matrix& pb = parent_value(n, 0);
        const Matrix& nb = parent_value(n, 1);
        for (index_t i = 0; i < m; ++i) {
          const float v = margin + pb.at(i, 0) - nb.at(i, 0);
          if (v <= 0.0f) continue;
          if (parent_needs_grad(n, 0)) parent_grad(n, 0).at(i, 0) += g;
          if (parent_needs_grad(n, 1)) parent_grad(n, 1).at(i, 0) -= g;
        }
      },
      "sptx::margin_ranking_loss_backward");
}

Variable logistic_ranking_loss(const Variable& pos, const Variable& neg,
                               float margin) {
  SPTX_CHECK(pos.value().same_shape(neg.value()),
             "logistic loss: " << pos.value().shape_str() << " vs "
                               << neg.value().shape_str());
  SPTX_CHECK(pos.cols() == 1, "logistic loss expects score columns");
  profiling::ScopedHotspot hotspot("sptx::logistic_ranking_loss");
  const index_t m = pos.rows();
  const Matrix& pv = pos.value();
  const Matrix& nv = neg.value();
  // Numerically stable softplus: log1p(exp(−|z|)) + max(z, 0).
  auto softplus = [](float z) {
    return std::log1p(std::exp(-std::fabs(z))) + (z > 0.0f ? z : 0.0f);
  };
  double acc = 0.0;
  for (index_t i = 0; i < m; ++i) {
    acc += softplus(margin + pv.at(i, 0) - nv.at(i, 0));
  }
  profiling::count_flops(6 * m);
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(acc / static_cast<double>(m));
  return Variable::op(
      std::move(out), {pos, neg},
      [margin, m](Node& n) {
        const float g = n.grad().at(0, 0) / static_cast<float>(m);
        const Matrix& pb = parent_value(n, 0);
        const Matrix& nb = parent_value(n, 1);
        for (index_t i = 0; i < m; ++i) {
          const float z = margin + pb.at(i, 0) - nb.at(i, 0);
          const float sig = 1.0f / (1.0f + std::exp(-z));
          if (parent_needs_grad(n, 0)) parent_grad(n, 0).at(i, 0) += g * sig;
          if (parent_needs_grad(n, 1)) parent_grad(n, 1).at(i, 0) -= g * sig;
        }
      },
      "sptx::logistic_ranking_loss_backward");
}

Variable sum_all(const Variable& x) {
  Matrix out(1, 1);
  out.at(0, 0) = x.value().sum();
  return Variable::op(
      std::move(out), {x},
      [](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        const float g = n.grad().at(0, 0);
        Matrix& dx = parent_grad(n, 0);
        for (index_t i = 0; i < dx.size(); ++i) dx.data()[i] += g;
      },
      "sptx::sum_backward");
}

Variable mean_all(const Variable& x) {
  const float inv = 1.0f / static_cast<float>(x.value().size());
  Matrix out(1, 1);
  out.at(0, 0) = x.value().sum() * inv;
  return Variable::op(
      std::move(out), {x},
      [inv](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        const float g = n.grad().at(0, 0) * inv;
        Matrix& dx = parent_grad(n, 0);
        for (index_t i = 0; i < dx.size(); ++i) dx.data()[i] += g;
      },
      "sptx::mean_backward");
}

// ------------------------------------------- semiring models (Appendix D)

Variable distmult_score(const Variable& ent_rel,
                        std::shared_ptr<const std::vector<Triplet>> batch,
                        index_t num_entities) {
  SPTX_CHECK(batch != nullptr, "distmult_score: null batch");
  profiling::ScopedHotspot hotspot("sptx::distmult_semiring_spmm");
  const Matrix& e = ent_rel.value();
  const index_t d = e.cols();
  const index_t m = static_cast<index_t>(batch->size());
  Matrix out(m, 1);
  profiling::count_flops(3 * m * d);
  for (index_t i = 0; i < m; ++i) {
    const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
    const float* h = e.row(t.head);
    const float* r = e.row(num_entities + t.relation);
    const float* tl = e.row(t.tail);
    float acc = 0.0f;
    for (index_t j = 0; j < d; ++j) acc += h[j] * r[j] * tl[j];
    out.at(i, 0) = acc;
  }
  return Variable::op(
      std::move(out), {ent_rel},
      [batch, num_entities](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        const Matrix& ev = parent_value(n, 0);
        Matrix& de = parent_grad(n, 0);
        const Matrix& g = n.grad();
        const index_t gd = ev.cols();
        profiling::count_flops(9 * g.rows() * gd);
        for (index_t i = 0; i < g.rows(); ++i) {
          const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
          const float gi = g.at(i, 0);
          const float* h = ev.row(t.head);
          const float* r = ev.row(num_entities + t.relation);
          const float* tl = ev.row(t.tail);
          float* dh = de.row(t.head);
          float* dr = de.row(num_entities + t.relation);
          float* dt = de.row(t.tail);
          for (index_t j = 0; j < gd; ++j) {
            dh[j] += gi * r[j] * tl[j];
            dr[j] += gi * h[j] * tl[j];
            dt[j] += gi * h[j] * r[j];
          }
        }
      },
      "sptx::distmult_backward");
}

Variable complex_score(const Variable& ent_rel,
                       std::shared_ptr<const std::vector<Triplet>> batch,
                       index_t num_entities) {
  SPTX_CHECK(batch != nullptr, "complex_score: null batch");
  SPTX_CHECK(ent_rel.cols() % 2 == 0, "complex_score: odd embedding dim");
  profiling::ScopedHotspot hotspot("sptx::complex_semiring_spmm");
  const Matrix& e = ent_rel.value();
  const index_t dc = e.cols() / 2;
  const index_t m = static_cast<index_t>(batch->size());
  Matrix out(m, 1);
  profiling::count_flops(14 * m * dc);
  // Re(h·r·conj(t)) per complex component, summed. Expanded:
  //   Re((hr)·conj(t)) = (hr)_re·t_re + (hr)_im·t_im.
  for (index_t i = 0; i < m; ++i) {
    const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
    const float* h = e.row(t.head);
    const float* r = e.row(num_entities + t.relation);
    const float* tl = e.row(t.tail);
    float acc = 0.0f;
    for (index_t j = 0; j < dc; ++j) {
      const float hr_re = h[2 * j] * r[2 * j] - h[2 * j + 1] * r[2 * j + 1];
      const float hr_im = h[2 * j] * r[2 * j + 1] + h[2 * j + 1] * r[2 * j];
      acc += hr_re * tl[2 * j] + hr_im * tl[2 * j + 1];
    }
    out.at(i, 0) = acc;
  }
  return Variable::op(
      std::move(out), {ent_rel},
      [batch, num_entities](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        const Matrix& ev = parent_value(n, 0);
        Matrix& de = parent_grad(n, 0);
        const Matrix& g = n.grad();
        const index_t gdc = ev.cols() / 2;
        profiling::count_flops(30 * g.rows() * gdc);
        for (index_t i = 0; i < g.rows(); ++i) {
          const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
          const float gi = g.at(i, 0);
          const float* h = ev.row(t.head);
          const float* r = ev.row(num_entities + t.relation);
          const float* tl = ev.row(t.tail);
          float* dh = de.row(t.head);
          float* dr = de.row(num_entities + t.relation);
          float* dt = de.row(t.tail);
          for (index_t j = 0; j < gdc; ++j) {
            const float hre = h[2 * j], him = h[2 * j + 1];
            const float rre = r[2 * j], rim = r[2 * j + 1];
            const float tre = tl[2 * j], tim = tl[2 * j + 1];
            // score_j = (hre·rre − him·rim)·tre + (hre·rim + him·rre)·tim
            dh[2 * j] += gi * (rre * tre + rim * tim);
            dh[2 * j + 1] += gi * (-rim * tre + rre * tim);
            dr[2 * j] += gi * (hre * tre + him * tim);
            dr[2 * j + 1] += gi * (-him * tre + hre * tim);
            dt[2 * j] += gi * (hre * rre - him * rim);
            dt[2 * j + 1] += gi * (hre * rim + him * rre);
          }
        }
      },
      "sptx::complex_backward");
}

Variable rotate_score(const Variable& ent_rel,
                      std::shared_ptr<const std::vector<Triplet>> batch,
                      index_t num_entities) {
  SPTX_CHECK(batch != nullptr, "rotate_score: null batch");
  SPTX_CHECK(ent_rel.cols() % 2 == 0, "rotate_score: odd embedding dim");
  profiling::ScopedHotspot hotspot("sptx::rotate_semiring_spmm");
  const Matrix& e = ent_rel.value();
  const index_t dc = e.cols() / 2;
  const index_t m = static_cast<index_t>(batch->size());
  Matrix out(m, 1);
  // RotatE treats each relation component as a unit rotation; instead of a
  // hard projection we normalise the relation factor on the fly:
  // rot = r / |r| componentwise (|r| clamped away from 0).
  auto diffs = std::make_shared<Matrix>(m, 2 * dc);  // h∘rot − t (cached)
  profiling::count_flops(16 * m * dc);
  for (index_t i = 0; i < m; ++i) {
    const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
    const float* h = e.row(t.head);
    const float* r = e.row(num_entities + t.relation);
    const float* tl = e.row(t.tail);
    float* diff = diffs->row(i);
    float acc = 0.0f;
    for (index_t j = 0; j < dc; ++j) {
      const float mag = std::max(
          std::sqrt(r[2 * j] * r[2 * j] + r[2 * j + 1] * r[2 * j + 1]),
          kNormEps);
      const float rre = r[2 * j] / mag, rim = r[2 * j + 1] / mag;
      const float dre = h[2 * j] * rre - h[2 * j + 1] * rim - tl[2 * j];
      const float dim = h[2 * j] * rim + h[2 * j + 1] * rre - tl[2 * j + 1];
      diff[2 * j] = dre;
      diff[2 * j + 1] = dim;
      acc += dre * dre + dim * dim;
    }
    out.at(i, 0) = std::sqrt(std::max(acc, kNormEps));
  }
  auto scores = std::make_shared<Matrix>(out);
  return Variable::op(
      std::move(out), {ent_rel},
      [batch, num_entities, diffs, scores](Node& n) {
        if (!parent_needs_grad(n, 0)) return;
        const Matrix& ev = parent_value(n, 0);
        Matrix& de = parent_grad(n, 0);
        const Matrix& g = n.grad();
        const index_t gdc = ev.cols() / 2;
        profiling::count_flops(24 * g.rows() * gdc);
        // d||v||/dv = v/||v||; then chain through the rotation. The
        // relation gradient is taken through the normalised factor
        // treating |r| as constant (projected-gradient approximation used
        // by unit-modulus RotatE implementations).
        for (index_t i = 0; i < g.rows(); ++i) {
          const Triplet& t = (*batch)[static_cast<std::size_t>(i)];
          const float gi = g.at(i, 0) / std::max(scores->at(i, 0), kNormEps);
          const float* h = ev.row(t.head);
          const float* r = ev.row(num_entities + t.relation);
          const float* diff = diffs->row(i);
          float* dh = de.row(t.head);
          float* dr = de.row(num_entities + t.relation);
          float* dt = de.row(t.tail);
          for (index_t j = 0; j < gdc; ++j) {
            const float mag = std::max(
                std::sqrt(r[2 * j] * r[2 * j] + r[2 * j + 1] * r[2 * j + 1]),
                kNormEps);
            const float rre = r[2 * j] / mag, rim = r[2 * j + 1] / mag;
            const float gre = gi * diff[2 * j];
            const float gim = gi * diff[2 * j + 1];
            // d diff / dh = rotation matrix [rre −rim; rim rre].
            dh[2 * j] += gre * rre + gim * rim;
            dh[2 * j + 1] += -gre * rim + gim * rre;
            // d diff / d rot, scaled back by 1/mag.
            dr[2 * j] += (gre * h[2 * j] + gim * h[2 * j + 1]) / mag;
            dr[2 * j + 1] += (-gre * h[2 * j + 1] + gim * h[2 * j]) / mag;
            dt[2 * j] -= gre;
            dt[2 * j + 1] -= gim;
          }
        }
      },
      "sptx::rotate_backward");
}

}  // namespace sptx::autograd
