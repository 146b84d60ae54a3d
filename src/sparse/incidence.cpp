#include "src/sparse/incidence.hpp"

#include "src/profiling/counters.hpp"

namespace sptx {

Coo build_ht_incidence(std::span<const Triplet> batch, index_t num_entities) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  Coo a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_entities;
  a.reserve(batch.size() * 2);
  for (index_t m = 0; m < a.rows; ++m) {
    const Triplet& t = batch[static_cast<std::size_t>(m)];
    SPTX_CHECK(t.head < num_entities && t.tail < num_entities,
               "triplet entity out of range: h=" << t.head << " t=" << t.tail
                                                 << " N=" << num_entities);
    a.push(m, t.head, +1.0f);
    a.push(m, t.tail, -1.0f);
  }
  return a;
}

Coo build_hrt_incidence(std::span<const Triplet> batch, index_t num_entities,
                        index_t num_relations) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  Coo a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_entities + num_relations;
  a.reserve(batch.size() * 3);
  for (index_t m = 0; m < a.rows; ++m) {
    const Triplet& t = batch[static_cast<std::size_t>(m)];
    SPTX_CHECK(t.head < num_entities && t.tail < num_entities &&
                   t.relation < num_relations,
               "triplet out of range: h=" << t.head << " r=" << t.relation
                                          << " t=" << t.tail);
    a.push(m, t.head, +1.0f);
    a.push(m, t.tail, -1.0f);
    a.push(m, num_entities + t.relation, +1.0f);
  }
  return a;
}

Csr build_ht_incidence_csr(std::span<const Triplet> batch,
                           index_t num_entities) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  // Direct CSR construction: every row has exactly 2 entries, so row_ptr is
  // arithmetic and no counting pass is needed.
  Csr a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_entities;
  a.row_ptr.resize(batch.size() + 1);
  a.col_idx.resize(batch.size() * 2);
  a.values.resize(batch.size() * 2);
  for (std::size_t m = 0; m < batch.size(); ++m) {
    const Triplet& t = batch[m];
    SPTX_CHECK(t.head < num_entities && t.tail < num_entities,
               "triplet entity out of range");
    a.row_ptr[m] = static_cast<index_t>(2 * m);
    a.col_idx[2 * m] = t.head;
    a.values[2 * m] = +1.0f;
    a.col_idx[2 * m + 1] = t.tail;
    a.values[2 * m + 1] = -1.0f;
  }
  a.row_ptr[batch.size()] = static_cast<index_t>(2 * batch.size());
  return a;
}

Csr build_hrt_incidence_csr(std::span<const Triplet> batch,
                            index_t num_entities, index_t num_relations) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  Csr a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_entities + num_relations;
  a.row_ptr.resize(batch.size() + 1);
  a.col_idx.resize(batch.size() * 3);
  a.values.resize(batch.size() * 3);
  for (std::size_t m = 0; m < batch.size(); ++m) {
    const Triplet& t = batch[m];
    SPTX_CHECK(t.head < num_entities && t.tail < num_entities &&
                   t.relation < num_relations,
               "triplet out of range");
    a.row_ptr[m] = static_cast<index_t>(3 * m);
    a.col_idx[3 * m] = t.head;
    a.values[3 * m] = +1.0f;
    a.col_idx[3 * m + 1] = t.tail;
    a.values[3 * m + 1] = -1.0f;
    a.col_idx[3 * m + 2] = num_entities + t.relation;
    a.values[3 * m + 2] = +1.0f;
  }
  a.row_ptr[batch.size()] = static_cast<index_t>(3 * batch.size());
  return a;
}

Csr build_entity_selection_csr(std::span<const Triplet> batch,
                               index_t num_entities, TripletSlot slot) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  Csr a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_entities;
  a.row_ptr.resize(batch.size() + 1);
  a.col_idx.resize(batch.size());
  a.values.assign(batch.size(), 1.0f);
  for (std::size_t m = 0; m < batch.size(); ++m) {
    const index_t e =
        slot == TripletSlot::kHead ? batch[m].head : batch[m].tail;
    SPTX_CHECK(e >= 0 && e < num_entities, "entity out of range");
    a.row_ptr[m] = static_cast<index_t>(m);
    a.col_idx[m] = e;
  }
  a.row_ptr[batch.size()] = static_cast<index_t>(batch.size());
  return a;
}

Csr build_relation_selection_csr(std::span<const Triplet> batch,
                                 index_t num_relations) {
  profiling::count_event(profiling::Counter::kIncidenceBuilds);
  Csr a;
  a.rows = static_cast<index_t>(batch.size());
  a.cols = num_relations;
  a.row_ptr.resize(batch.size() + 1);
  a.col_idx.resize(batch.size());
  a.values.assign(batch.size(), 1.0f);
  for (std::size_t m = 0; m < batch.size(); ++m) {
    SPTX_CHECK(batch[m].relation >= 0 && batch[m].relation < num_relations,
               "relation out of range");
    a.row_ptr[m] = static_cast<index_t>(m);
    a.col_idx[m] = batch[m].relation;
  }
  a.row_ptr[batch.size()] = static_cast<index_t>(batch.size());
  return a;
}

}  // namespace sptx
