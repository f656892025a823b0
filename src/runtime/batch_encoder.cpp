#include "hdc/runtime/batch_encoder.hpp"

#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"

namespace hdc::runtime {

BatchEncoder::BatchEncoder(std::size_t dimension, EncodeFn encode,
                           ThreadPoolPtr pool)
    : dimension_(dimension), encode_(std::move(encode)),
      pool_(std::move(pool)) {
  require_positive(dimension, "BatchEncoder", "dimension");
  require(encode_ != nullptr, "BatchEncoder", "encode must not be null");
  require(pool_ != nullptr, "BatchEncoder", "pool must not be null");
}

VectorArena BatchEncoder::encode(std::span<const double> rows,
                                 std::size_t row_width) const {
  require_positive(row_width, "BatchEncoder::encode", "row_width");
  require(rows.size() % row_width == 0, "BatchEncoder::encode",
          "rows.size() must be a multiple of row_width");
  const std::size_t count = rows.size() / row_width;
  VectorArena arena(dimension_, count);
  pool_->for_chunks(count, [&](std::size_t begin, std::size_t end,
                               std::size_t /*chunk*/) {
    for (std::size_t i = begin; i < end; ++i) {
      encode_into(rows.subspan(i * row_width, row_width),
                  arena.mutable_words(i));
    }
  });
  return arena;
}

VectorArena BatchEncoder::encode(
    std::span<const std::vector<double>> rows) const {
  const std::size_t count = rows.size();
  VectorArena arena(dimension_, count);
  pool_->for_chunks(count, [&](std::size_t begin, std::size_t end,
                               std::size_t /*chunk*/) {
    for (std::size_t i = begin; i < end; ++i) {
      encode_into(rows[i], arena.mutable_words(i));
    }
  });
  return arena;
}

void BatchEncoder::encode_into(std::span<const double> row,
                               std::span<std::uint64_t> out) const {
  require(out.size() == bits::words_for(dimension_),
          "BatchEncoder::encode_into",
          "out must hold words_for(dimension) words");
  encode_(row, out);
}

}  // namespace hdc::runtime
