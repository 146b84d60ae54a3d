// Incidence-matrix builders — §4.2 of the paper.
//
// These are the core reformulation: a batch of M triplets becomes a sparse
// matrix A such that one SpMM with the embedding matrix computes the batch's
// translation expression:
//
//   * ht  (§4.2.1): A ∈ {−1,0,1}^{M×N}; row m has +1 at head(m), −1 at
//     tail(m). A·E = head − tail for every triplet. Exactly 2 nnz per row.
//   * hrt (§4.2.2): A ∈ {−1,0,1}^{M×(N+R)}; row m additionally has +1 at
//     N + rel(m), and E stacks entity embeddings over relation embeddings.
//     A·[E;R] = head + rel − tail. Exactly 3 nnz per row.
//
// Appendix B: sparsity is independent of the graph's density, because A is
// an incidence (triplet-per-row) matrix, not an adjacency matrix.
//
// Self-loop caveat: a triplet with head == tail contributes +1 and −1 in the
// same column. We keep both entries (coefficients sum on multiply), so the
// algebra A·E = h − t (+ r) holds exactly even for self-loops.
#pragma once

#include <span>

#include "src/kg/triplet.hpp"
#include "src/sparse/sparse_matrix.hpp"

namespace sptx {

/// Build the ht incidence matrix (head − tail) for a batch of triplets.
/// `num_entities` fixes the column count N.
Coo build_ht_incidence(std::span<const Triplet> batch, index_t num_entities);

/// Build the hrt incidence matrix (head + relation − tail). Columns are
/// N entities followed by R relations; relation indices are offset by N.
Coo build_hrt_incidence(std::span<const Triplet> batch, index_t num_entities,
                        index_t num_relations);

/// CSR convenience wrappers (CPU SpMM consumes CSR, §5.5).
Csr build_ht_incidence_csr(std::span<const Triplet> batch,
                           index_t num_entities);
Csr build_hrt_incidence_csr(std::span<const Triplet> batch,
                            index_t num_entities, index_t num_relations);

/// Which triplet slot an entity-selection matrix picks.
enum class TripletSlot { kHead, kTail };

/// (M×N) one-hot selection matrix: row m has +1 at head(m) or tail(m).
/// SpMM with the entity table gathers the per-triplet rows; the transposed
/// SpMM scatters their gradients — keeps per-side gathers (TransD's
/// asymmetric projections) inside the sparse formulation.
Csr build_entity_selection_csr(std::span<const Triplet> batch,
                               index_t num_entities, TripletSlot slot);

/// (M×R) one-hot relation-selection matrix: row m has +1 at rel(m). SpMM
/// with the relation table gathers per-triplet relation rows; the
/// transposed SpMM scatters their gradients (TransH / TransR / TransA / …).
Csr build_relation_selection_csr(std::span<const Triplet> batch,
                                 index_t num_relations);

}  // namespace sptx
