#include "hdc/core/composed_encoder.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/core/bitops.hpp"

namespace hdc {

ComposedEncoder::ComposedEncoder(std::vector<ScalarEncoderPtr> parts)
    : parts_(std::move(parts)) {
  if (parts_.size() < 2) {
    throw std::invalid_argument(
        "ComposedEncoder: needs at least two sub-encoders (use the scalar "
        "encoder directly for one)");
  }
  for (const ScalarEncoderPtr& part : parts_) {
    if (!part) {
      throw std::invalid_argument("ComposedEncoder: null sub-encoder");
    }
  }
  const std::size_t dimension = parts_.front()->dimension();
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    if (parts_[i]->dimension() != dimension) {
      throw std::invalid_argument(
          "ComposedEncoder: sub-encoder " + std::to_string(i) +
          " dimension " + std::to_string(parts_[i]->dimension()) +
          " disagrees with " + std::to_string(dimension));
    }
  }
}

Hypervector ComposedEncoder::encode(std::span<const double> features) const {
  Hypervector bound(dimension());
  encode_into(features, bound.words());
  return bound;
}

void ComposedEncoder::encode_into(std::span<const double> features,
                                  std::span<std::uint64_t> out) const {
  if (features.size() != parts_.size()) {
    throw std::invalid_argument(
        "ComposedEncoder::encode: expected " + std::to_string(parts_.size()) +
        " features, got " + std::to_string(features.size()));
  }
  if (out.size() != bits::words_for(dimension())) {
    throw std::invalid_argument(
        "ComposedEncoder::encode_into: output row has " +
        std::to_string(out.size()) + " words, expected " +
        std::to_string(bits::words_for(dimension())));
  }
  // Basis views are zero-tailed, so their XOR product is too.
  bits::xor_rows(out, parts_[0]->encode(features[0]).words(),
                 parts_[1]->encode(features[1]).words());
  for (std::size_t i = 2; i < parts_.size(); ++i) {
    bits::xor_into(out, parts_[i]->encode(features[i]).words());
  }
}

const ScalarEncoder& ComposedEncoder::part(std::size_t i) const {
  if (i >= parts_.size()) {
    throw std::out_of_range("ComposedEncoder::part: index out of range");
  }
  return *parts_[i];
}

}  // namespace hdc
