// Differentiable operations.
//
// Two families:
//  * Coarse-grained sparse ops (spmm) — the paper's contribution: forward is
//    one SpMM over the incidence matrix, backward is one transposed SpMM
//    (Appendix G).
//  * Fine-grained dense ops (gather + elementwise) — the TorchKGE-style
//    baseline path: forward gathers one embedding row per triplet per role,
//    backward scatter-adds per row ("EmbeddingBackward" in Figure 2).
// Plus the shared tail of every score function: norms, the torus
// dissimilarity, row dots, per-relation projections, and the margin ranking
// loss.
//
// Backward-rule notation in the comments: g is the incoming gradient
// (dL/d out); each rule states what is accumulated into each parent.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/autograd/variable.hpp"
#include "src/kg/triplet.hpp"
#include "src/sparse/sparse_matrix.hpp"

namespace sptx::autograd {

// ---- Elementwise / linear ---------------------------------------------
/// c = a + b.                Backward: da += g; db += g.
Variable add(const Variable& a, const Variable& b);
/// c = a − b.                Backward: da += g; db −= g.
Variable sub(const Variable& a, const Variable& b);
/// c = a ⊙ b.                Backward: da += g⊙b; db += g⊙a.
Variable mul(const Variable& a, const Variable& b);
/// c = s·a.                  Backward: da += s·g.
Variable scale(const Variable& a, float s);

// ---- Sparse path (SpTransX) --------------------------------------------
/// c = A · x, A a CSR incidence matrix held by shared_ptr so the graph can
/// outlive the caller's batch scope. Backward: dx += Aᵀ·g — a second SpMM
/// (Appendix G), not M row-scatters.
Variable spmm(std::shared_ptr<const Csr> a, const Variable& x);

// ---- Dense baseline path (TorchKGE-style) --------------------------------
/// c_i = x[idx_i, :]: per-row embedding lookup. Backward scatter-adds g's
/// rows into dx one index at a time — the fine-grained
/// EmbeddingBackward pattern the paper identifies as the bottleneck.
Variable gather(const Variable& x, std::shared_ptr<const std::vector<index_t>> idx);

// ---- Score-function tails -------------------------------------------------
/// out_i = ||x_i||₂ (M×1).   Backward: dx_i += g_i · x_i / max(||x_i||, ε).
Variable row_l2(const Variable& x);
/// out_i = ||x_i||₁.          Backward: dx_i += g_i · sign(x_i).
Variable row_l1(const Variable& x);
/// out_i = ||x_i||₂².         Backward: dx_i += 2 g_i x_i.
Variable row_squared_l2(const Variable& x);
/// TorusE L2 torus dissimilarity (squared): per component the wraparound
/// distance m = min(frac(x), 1−frac(x)); out_i = Σ_j m_ij².
/// Backward: d m²/dx = 2m where frac < 1/2, −2m otherwise.
Variable row_squared_l2_torus(const Variable& x);
/// TorusE L1 torus dissimilarity: out_i = Σ_j m_ij.
Variable row_l1_torus(const Variable& x);
/// out_i = ⟨a_i, b_i⟩ (M×1). Backward: da_i += g_i b_i; db_i += g_i a_i.
Variable row_dot(const Variable& a, const Variable& b);
/// out_i = col_i · x_i (row scaling by an M×1 column).
/// Backward: dcol_i += ⟨g_i, x_i⟩; dx_i += col_i · g_i.
Variable scale_rows(const Variable& col, const Variable& x);

/// Per-relation linear projection (TransR): proj stores R stacked (dr×de)
/// blocks as an (R·dr × de) matrix; out_i = M_{rel_i} · x_i.
/// Backward: dx_i += M_{rel_i}ᵀ g_i; dM_{rel_i} += g_i x_iᵀ.
Variable relation_project(const Variable& proj, const Variable& x,
                          std::shared_ptr<const std::vector<index_t>> rel,
                          index_t proj_rows);

// ---- Losses / reductions ---------------------------------------------
/// Margin ranking loss over distance scores (lower is better):
/// L = mean_i max(0, margin + pos_i − neg_i)  (1×1 scalar).
/// Backward: where active, dpos_i += g/M, dneg_i −= g/M.
Variable margin_ranking_loss(const Variable& pos, const Variable& neg,
                             float margin);
/// Smooth (logistic) ranking loss: L = mean_i softplus(margin + pos_i −
/// neg_i). Backward: dpos_i += σ(z_i)·g/M, dneg_i −= σ(z_i)·g/M.
Variable logistic_ranking_loss(const Variable& pos, const Variable& neg,
                               float margin);
/// Scalar sum of all elements. Backward: dx += g (broadcast).
Variable sum_all(const Variable& x);
/// Scalar mean of all elements.
Variable mean_all(const Variable& x);

// ---- Semiring extension ops (Appendix D) ----------------------------------
/// DistMult score: out_i = Σ_j (h ⊙ r ⊙ t)_ij with all three rows read from
/// the stacked [E; R] matrix via the index triple. Higher is better.
Variable distmult_score(const Variable& ent_rel,
                        std::shared_ptr<const std::vector<Triplet>> batch,
                        index_t num_entities);
/// ComplEx score: out_i = Σ_j Re(h ⊙ r ⊙ conj(t))_ij (interleaved complex).
Variable complex_score(const Variable& ent_rel,
                       std::shared_ptr<const std::vector<Triplet>> batch,
                       index_t num_entities);
/// RotatE distance: out_i = ||h ⊙ r − t||₂ with |r_j| = 1 enforced by
/// normalising the relation factors inside the kernel. Lower is better.
Variable rotate_score(const Variable& ent_rel,
                      std::shared_ptr<const std::vector<Triplet>> batch,
                      index_t num_entities);

}  // namespace sptx::autograd
