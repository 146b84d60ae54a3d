#include "src/sparse/row_support.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace sptx::sparse {

RowSupport::RowSupport(index_t num_entities, index_t num_relations)
    : num_entities_(num_entities),
      num_relations_(num_relations),
      words_(static_cast<std::size_t>(num_entities + num_relations + 63) / 64,
             0) {
  SPTX_CHECK(num_entities >= 0 && num_relations >= 0,
             "row support over a negative vocabulary");
}

void RowSupport::add(std::span<const Triplet> batch) {
  const auto mark = [this](index_t row) {
    words_[static_cast<std::size_t>(row) >> 6] |=
        std::uint64_t{1} << (static_cast<std::uint64_t>(row) & 63u);
  };
  for (const Triplet& t : batch) {
    SPTX_CHECK(t.head >= 0 && t.head < num_entities_ && t.tail >= 0 &&
                   t.tail < num_entities_ && t.relation >= 0 &&
                   t.relation < num_relations_,
               "triplet (" << t.head << ", " << t.relation << ", " << t.tail
                           << ") outside the row support's vocabulary ("
                           << num_entities_ << " entities, "
                           << num_relations_ << " relations)");
    mark(t.head);
    mark(t.tail);
    mark(num_entities_ + t.relation);
  }
}

void RowSupport::assign_union(const RowSupport& a, const RowSupport& b) {
  SPTX_CHECK(a.num_entities_ == b.num_entities_ &&
                 a.num_relations_ == b.num_relations_,
             "row supports over different vocabularies");
  num_entities_ = a.num_entities_;
  num_relations_ = a.num_relations_;
  words_.resize(a.words_.size());
  for (std::size_t w = 0; w < words_.size(); ++w)
    words_[w] = a.words_[w] | b.words_[w];
}

std::vector<index_t> RowSupport::ids_in(index_t begin, index_t end) const {
  std::vector<index_t> ids;
  for (index_t w = begin >> 6; w < ((end + 63) >> 6); ++w) {
    std::uint64_t bits = words_[static_cast<std::size_t>(w)];
    while (bits != 0) {
      const index_t row = (w << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      if (row >= begin && row < end) ids.push_back(row - begin);
    }
  }
  return ids;
}

std::vector<index_t> RowSupport::entity_ids() const {
  return ids_in(0, num_entities_);
}

std::vector<index_t> RowSupport::relation_ids() const {
  return ids_in(num_entities_, num_entities_ + num_relations_);
}

std::vector<index_t> RowSupport::stacked_ids() const {
  return ids_in(0, num_entities_ + num_relations_);
}

ParamRows::ParamRows(const RowSupport* support, ParamIndexSpace space,
                     index_t rows)
    : support_(support),
      space_(support == nullptr ? ParamIndexSpace::kDense : space),
      rows_(rows),
      all_(space_ == ParamIndexSpace::kDense) {
  if (all_) return;
  const index_t n = support->num_entities();
  const index_t r = support->num_relations();
  index_t expect = rows;
  switch (space_) {
    case ParamIndexSpace::kEntity:
      expect = n;
      break;
    case ParamIndexSpace::kRelation:
      expect = r;
      break;
    case ParamIndexSpace::kEntityRelationStacked:
      expect = n + r;
      break;
    case ParamIndexSpace::kRelationBlocks:
      SPTX_CHECK(r > 0 && rows % r == 0,
                 "kRelationBlocks parameter rows (" << rows
                     << ") not divisible by relation count " << r);
      block_ = rows / r;
      break;
    case ParamIndexSpace::kDense:
      break;
  }
  SPTX_CHECK(rows == expect,
             "parameter with " << rows << " rows declared an index space of "
                               << expect << " rows (" << n << " entities, "
                               << r << " relations)");
}

std::vector<index_t> ParamRows::rows() const {
  std::vector<index_t> out;
  if (all_) {
    out.resize(static_cast<std::size_t>(rows_));
    for (index_t i = 0; i < rows_; ++i) out[static_cast<std::size_t>(i)] = i;
    return out;
  }
  switch (space_) {
    case ParamIndexSpace::kEntity:
      return support_->entity_ids();
    case ParamIndexSpace::kRelation:
      return support_->relation_ids();
    case ParamIndexSpace::kRelationBlocks:
      for (index_t rel : support_->relation_ids())
        for (index_t k = 0; k < block_; ++k) out.push_back(rel * block_ + k);
      return out;
    default:
      return support_->stacked_ids();
  }
}

}  // namespace sptx::sparse
