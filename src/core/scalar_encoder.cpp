#include "hdc/core/scalar_encoder.hpp"

#include <algorithm>
#include <cmath>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"

namespace hdc {

double ScalarEncoder::decode(HypervectorView query) const {
  require(query.dimension() == dimension(), "ScalarEncoder::decode",
          "query dimension mismatch");
  const bits::NearestMatch nearest = bits::nearest_hamming(
      query.words(), grid_words(), bits::words_for(dimension()), size());
  return value_of(nearest.index);
}

LinearScalarEncoder::LinearScalarEncoder(Basis basis, double lo, double hi)
    : basis_(std::move(basis)), lo_(lo), hi_(hi) {
  require(basis_.size() >= 2, "LinearScalarEncoder",
          "basis must contain at least 2 vectors");
  require(std::isfinite(lo) && std::isfinite(hi) && lo < hi,
          "LinearScalarEncoder", "interval must satisfy lo < hi");
  step_ = (hi_ - lo_) / static_cast<double>(basis_.size() - 1);
}

std::size_t LinearScalarEncoder::index_of(double value) const {
  const double clamped = std::clamp(value, lo_, hi_);
  const auto index =
      static_cast<std::size_t>(std::llround((clamped - lo_) / step_));
  return std::min(index, basis_.size() - 1);
}

HypervectorView LinearScalarEncoder::encode(double value) const {
  return basis_[index_of(value)];
}

double LinearScalarEncoder::value_of(std::size_t index) const {
  require(index < basis_.size(), "LinearScalarEncoder::value_of",
          "index out of range");
  return lo_ + static_cast<double>(index) * step_;
}

CircularScalarEncoder::CircularScalarEncoder(Basis basis, double period)
    : basis_(std::move(basis)), period_(period) {
  require(basis_.size() >= 2, "CircularScalarEncoder",
          "basis must contain at least 2 vectors");
  require(std::isfinite(period) && period > 0.0, "CircularScalarEncoder",
          "period must be positive");
}

std::size_t CircularScalarEncoder::index_of(double value) const {
  const auto m = static_cast<double>(basis_.size());
  double wrapped = std::fmod(value, period_);
  if (wrapped < 0.0) {
    wrapped += period_;
  }
  const auto index =
      static_cast<std::size_t>(std::llround(wrapped / period_ * m));
  return index % basis_.size();  // grid point m wraps to 0
}

HypervectorView CircularScalarEncoder::encode(double value) const {
  return basis_[index_of(value)];
}

double CircularScalarEncoder::value_of(std::size_t index) const {
  require(index < basis_.size(), "CircularScalarEncoder::value_of",
          "index out of range");
  return static_cast<double>(index) * period_ /
         static_cast<double>(basis_.size());
}

}  // namespace hdc
