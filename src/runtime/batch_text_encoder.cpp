#include "hdc/runtime/batch_text_encoder.hpp"

#include <algorithm>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"

namespace hdc::runtime {

BatchTextEncoder::BatchTextEncoder(std::size_t dimension, TextEncodeFn encode,
                                   ThreadPoolPtr pool)
    : dimension_(dimension), encode_(std::move(encode)),
      pool_(std::move(pool)) {
  require_positive(dimension, "BatchTextEncoder", "dimension");
  require(encode_ != nullptr, "BatchTextEncoder", "encode must not be null");
  require(pool_ != nullptr, "BatchTextEncoder", "pool must not be null");
}

VectorArena BatchTextEncoder::encode(
    std::span<const std::string> rows) const {
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

void BatchTextEncoder::encode_into(std::string_view text,
                                   std::span<std::uint64_t> out) const {
  require(out.size() == bits::words_for(dimension_),
          "BatchTextEncoder::encode_into",
          "out must hold words_for(dimension) words");
  const Hypervector hv = encode_(text);
  require(hv.dimension() == dimension_, "BatchTextEncoder::encode_into",
          "encode function returned a wrong-dimension hypervector");
  std::ranges::copy(hv.words(), out.begin());
}

}  // namespace hdc::runtime
