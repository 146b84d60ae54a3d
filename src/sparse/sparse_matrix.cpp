#include "src/sparse/sparse_matrix.hpp"

namespace sptx {

namespace {
bool all_unit(const std::vector<float>& values) {
  for (float v : values) {
    if (v != 1.0f && v != -1.0f) return false;
  }
  return true;
}
}  // namespace

bool Csr::unit_values() const {
  if (unit_values_cache < 0) unit_values_cache = all_unit(values) ? 1 : 0;
  return unit_values_cache == 1;
}

const Csr& Csr::transposed() const {
  if (!transpose_cache) {
    auto t = std::make_shared<Csr>(transpose(*this));
    // Force the ±1 scan now (transpose preserves values, so the flag
    // transfers): consumers query unit_values() on the transpose from
    // inside parallel regions, and the lazy scan must not race there.
    t->unit_values_cache = unit_values() ? 1 : 0;
    transpose_cache = std::move(t);
  }
  return *transpose_cache;
}

Csr coo_to_csr(const Coo& coo) {
  Csr csr;
  csr.rows = coo.rows;
  csr.cols = coo.cols;
  csr.row_ptr.assign(static_cast<std::size_t>(coo.rows) + 1, 0);
  csr.col_idx.resize(coo.values.size());
  csr.values.resize(coo.values.size());

  for (index_t r : coo.row_idx) csr.row_ptr[static_cast<std::size_t>(r) + 1]++;
  for (index_t r = 0; r < coo.rows; ++r)
    csr.row_ptr[static_cast<std::size_t>(r) + 1] +=
        csr.row_ptr[static_cast<std::size_t>(r)];

  std::vector<index_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  for (index_t k = 0; k < coo.nnz(); ++k) {
    const index_t r = coo.row_idx[static_cast<std::size_t>(k)];
    const index_t dst = cursor[static_cast<std::size_t>(r)]++;
    csr.col_idx[static_cast<std::size_t>(dst)] =
        coo.col_idx[static_cast<std::size_t>(k)];
    csr.values[static_cast<std::size_t>(dst)] =
        coo.values[static_cast<std::size_t>(k)];
  }
  return csr;
}

Coo csr_to_coo(const Csr& csr) {
  Coo coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  coo.reserve(static_cast<std::size_t>(csr.nnz()));
  for (index_t r = 0; r < csr.rows; ++r) {
    for (index_t k = csr.row_ptr[static_cast<std::size_t>(r)];
         k < csr.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      coo.push(r, csr.col_idx[static_cast<std::size_t>(k)],
               csr.values[static_cast<std::size_t>(k)]);
    }
  }
  return coo;
}

Csr transpose(const Csr& a) {
  Csr t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.row_ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  t.col_idx.resize(a.values.size());
  t.values.resize(a.values.size());

  for (index_t c : a.col_idx) t.row_ptr[static_cast<std::size_t>(c) + 1]++;
  for (index_t r = 0; r < t.rows; ++r)
    t.row_ptr[static_cast<std::size_t>(r) + 1] +=
        t.row_ptr[static_cast<std::size_t>(r)];

  std::vector<index_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t k = a.row_ptr[static_cast<std::size_t>(r)];
         k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const index_t c = a.col_idx[static_cast<std::size_t>(k)];
      const index_t dst = cursor[static_cast<std::size_t>(c)]++;
      t.col_idx[static_cast<std::size_t>(dst)] = r;
      t.values[static_cast<std::size_t>(dst)] =
          a.values[static_cast<std::size_t>(k)];
    }
  }
  return t;
}

Matrix to_dense(const Csr& a) {
  Matrix d(a.rows, a.cols);
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t k = a.row_ptr[static_cast<std::size_t>(r)];
         k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      d.at(r, a.col_idx[static_cast<std::size_t>(k)]) +=
          a.values[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

Matrix to_dense(const Coo& a) {
  Matrix d(a.rows, a.cols);
  for (index_t k = 0; k < a.nnz(); ++k) {
    d.at(a.row_idx[static_cast<std::size_t>(k)],
         a.col_idx[static_cast<std::size_t>(k)]) +=
        a.values[static_cast<std::size_t>(k)];
  }
  return d;
}

}  // namespace sptx
