// Fused forward+backward scoring kernels — the autograd-bypass layer.
//
// The Figure-2 hotspot profile shows that after the SpMM engine, the
// dominant CPU cost in every translation family is the chain of small
// unfused autograd ops (add/sub backward, relation_project, the torus
// dissimilarity): each node materialises an M×d intermediate and performs
// its own gradient pass. These kernels collapse the whole score expression
// of one family into a single pass — gather h, r, t rows straight from the
// embedding tables, translate/project in registers, reduce to the L1/L2 (or
// torus) score — and a matching single-pass backward that scatters
// gradients directly into the parameter tables (no add_backward /
// sub_backward / embedding_backward_scatter nodes, no intermediate Matrix
// allocations; the only scratch is one Workspace-pooled row buffer per
// forward chunk or backward call).
//
// Everything is AVX2/FMA with a scalar fallback, dispatched at runtime per
// batch via the same cpuid probe as the SpMM engine (cpu_features.hpp;
// SPTX_NO_SIMD forces scalar). Every family that provides kernels scores
// through its *_forward kernel alone (KgeModel::score, so evaluation and
// serving), whatever SPTX_FUSED says. The registry flag selects only the
// training graph: `off` keeps the legacy autograd graph (bit identical to
// the historical path), on (the default) uses the fused forward+backward
// pair.
//
// Threading: a *_forward kernel writes one score per triplet, so it splits
// the batch into contiguous chunks of about kForwardChunkFloats gathered
// floats and runs them on the shared TaskPool (runtime::parallel_for). A
// batch of one chunk runs on the caller and never touches the pool. The
// split changes no arithmetic: every score is bit-identical at any pool
// width. Backward kernels stay serial — their scatter accumulates into
// rows that many triplets share, and neither bit-identical split measured
// on FB15K paid (lanes owning rows re-read most rows; computing the
// coefficients first and applying them per owner was no faster and lost
// the FMA the compiler forms in the serial kernel). Both directions
// software-prefetch the rows a few triplets ahead once the tables outgrow
// the fast caches, like the SpMM engine. TransR's relation-grouped kernels
// (fused_transr.cpp) keep their own serial loops.
//
// Numerical contract: identical formulas and epsilons as the autograd ops
// they replace (row_l2's 1e-12 denominator clamp, the sign(0) = 0
// convention of row_l1, the torus wraparound derivative). SIMD accumulation
// reorders additions, so fused-vs-autograd agreement is within FP tolerance
// (asserted by tests/test_fused_kernels.cpp), not bit-exact.
//
// Lifetime contract: backward passes re-read the triplets, so the storage
// backing the `batch` span must outlive backward(). Every library caller
// satisfies this (compiled plans are held across the backward; the
// trainer's staged buffers live for the batch), and the models layer
// additionally keeps plan-owned triplet vectors alive by capturing their
// shared_ptr in the autograd node.
#pragma once

#include <cstdint>
#include <span>

#include "src/common/runtime_config.hpp"
#include "src/kg/triplet.hpp"
#include "src/sparse/plan_cache.hpp"
#include "src/tensor/matrix.hpp"

namespace sptx::kernels {

/// Dissimilarity tail of the score expression. Mirrors
/// models::Dissimilarity without depending on the models layer.
enum class Norm { kL1, kL2 };

/// SPTX_FUSED resolution against the process-wide snapshot (one
/// pre-resolved field read, RuntimeConfig::hot()): whether the training
/// graph uses the fused node (on, the default) or the autograd graph
/// (`off`). Read only by ScoringCoreModel::run_forward and
/// SpTransR::recipe (enforced by sptx_lint's fused-dispatch rule); score()
/// uses the forward kernels under either setting, and the semiring
/// families are already single fused autograd ops, unaffected either way.
bool fused_enabled();

/// Gathered floats (rows read per triplet × d) per forward chunk: 1 MiB.
/// A 512-triplet ANN re-rank block of any ANN family at d ≤ 128 is one
/// chunk and runs inline.
constexpr std::int64_t kForwardChunkFloats = std::int64_t{1} << 18;

// ---- Stacked-table families ------------------------------------------------
// table is the [entities; relations] stack ((N+R) × d, relations offset by
// `num_entities`). scores/gscores are M-length contiguous columns. Backward
// accumulates (+=) into the gradient tables, exactly like the autograd path.

/// TransE: scores[i] = ||h + r − t||₁ or ₂.
void transe_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores);
void transe_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* scores,
                     const float* gscores, Matrix& dtable);

/// TransC: scores[i] = ||h + r − t||₂² (no square root).
void transc_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, float* scores);
void transc_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, const float* gscores,
                     Matrix& dtable);

/// TorusE: scores[i] = Σ_j m_ij (L1) or Σ_j m_ij² (L2) with the wraparound
/// component distance m = min(frac(v), 1 − frac(v)).
void toruse_forward(std::span<const Triplet> batch, const Matrix& table,
                    index_t num_entities, Norm norm, float* scores);
void toruse_backward(std::span<const Triplet> batch, const Matrix& table,
                     index_t num_entities, Norm norm, const float* gscores,
                     Matrix& dtable);

/// TransA (diagonal metric): scores[i] = Σ_j w_rj · (h + r − t)_j².
void transa_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& metric, index_t num_entities, float* scores);
void transa_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& metric, index_t num_entities,
                     const float* gscores, Matrix& dtable, Matrix& dmetric);

/// TransM: scores[i] = w_r · ||h + r − t||.
void transm_forward(std::span<const Triplet> batch, const Matrix& table,
                    const Matrix& rel_weight, index_t num_entities, Norm norm,
                    float* scores);
void transm_backward(std::span<const Triplet> batch, const Matrix& table,
                     const Matrix& rel_weight, index_t num_entities, Norm norm,
                     const float* gscores, Matrix& dtable, Matrix& dweight);

// ---- Separate-table families ----------------------------------------------

/// TransH: scores[i] = ||(h − t) + d_r − (w_rᵀ(h − t)) w_r||.
void transh_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& normals, const Matrix& transfers, Norm norm,
                    float* scores);
void transh_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& normals, const Matrix& transfers, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dnormals, Matrix& dtransfers);

/// TransD: scores[i] = ||(h − t) + r + (h_pᵀh − t_pᵀt) r_p||.
void transd_forward(std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& entity_proj, const Matrix& relations,
                    const Matrix& relation_proj, Norm norm, float* scores);
void transd_backward(std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& entity_proj, const Matrix& relations,
                     const Matrix& relation_proj, Norm norm,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& dentity_proj,
                     Matrix& drelations, Matrix& drelation_proj);

// ---- TransR: relation-grouped blocked batched-GEMM -------------------------
// projections stacks R (d_r × d) blocks; scores[i] = ||M_r (h − t) + r||.
// When `groups` (built once per CompiledBatch, cached with the plan) is
// non-null the rows are processed relation-by-relation so each M_r panel
// stays cache-resident, with rows packed four at a time into a diff panel
// that the GEMM micro-kernel consumes (4× reuse of every M_r / dM_r cache
// line). Null groups fall back to batch order (the span-only score path).
//
// `expr_stash` (M × d_r) stores the pre-norm expression for the backward
// pass; pass nullptr on score-only calls to skip the store.
void transr_forward(const sparse::RelationGroups* groups,
                    std::span<const Triplet> batch, const Matrix& entities,
                    const Matrix& relations, const Matrix& projections,
                    index_t rel_dim, Norm norm, float* scores,
                    Matrix* expr_stash);
void transr_backward(const sparse::RelationGroups* groups,
                     std::span<const Triplet> batch, const Matrix& entities,
                     const Matrix& relations, const Matrix& projections,
                     index_t rel_dim, Norm norm, const Matrix& expr_stash,
                     const float* scores, const float* gscores,
                     Matrix& dentities, Matrix& drelations,
                     Matrix& dprojections);

}  // namespace sptx::kernels
