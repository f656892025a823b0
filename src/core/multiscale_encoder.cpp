#include "hdc/core/multiscale_encoder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"

namespace hdc {

namespace {

std::vector<std::size_t> sorted_scales(
    const MultiScaleCircularEncoder::Config& config) {
  require_positive(config.dimension, "MultiScaleCircularEncoder", "dimension");
  require(!config.scales.empty(), "MultiScaleCircularEncoder",
          "need at least one scale");
  require(std::isfinite(config.period) && config.period > 0.0,
          "MultiScaleCircularEncoder", "period must be positive");

  std::vector<std::size_t> scales = config.scales;
  std::sort(scales.begin(), scales.end());
  for (const std::size_t m : scales) {
    require(m >= 2, "MultiScaleCircularEncoder", "every scale must be >= 2");
  }
  return scales;
}

std::vector<Basis> make_scale_bases(
    const MultiScaleCircularEncoder::Config& config,
    const std::vector<std::size_t>& scales) {
  std::vector<Basis> bases;
  bases.reserve(scales.size());
  for (std::size_t s = 0; s < scales.size(); ++s) {
    CircularBasisConfig basis_config;
    basis_config.dimension = config.dimension;
    basis_config.size = scales[s];
    basis_config.seed = derive_seed(config.seed, s);
    bases.push_back(make_circular_basis(basis_config));
  }
  return bases;
}

}  // namespace

MultiScaleCircularEncoder::MultiScaleCircularEncoder(const Config& config)
    : scales_(sorted_scales(config)),
      period_(config.period),
      seed_(config.seed) {
  bases_ = make_scale_bases(config, scales_);
  // Pack every bound vector straight into the arena up front: encode() and
  // decode() then only read immutable state, which is what makes concurrent
  // use safe.  Each scale quantizes the same representative angle onto its
  // own ring.
  const std::size_t m_fine = bases_.back().size();
  words_per_vector_ = bits::words_for(bases_.back().dimension());
  std::vector<std::uint64_t> arena(m_fine * words_per_vector_, 0ULL);
  for (std::size_t index = 0; index < m_fine; ++index) {
    const double theta = value_of(index);
    Hypervector bound(bases_.back()[index]);
    for (std::size_t s = 0; s + 1 < bases_.size(); ++s) {
      const Basis& basis = bases_[s];
      const auto m = static_cast<double>(basis.size());
      const auto coarse = static_cast<std::size_t>(
                              std::llround(theta / period_ * m)) %
                          basis.size();
      bound ^= basis[coarse];
    }
    pack_row(bound, arena, words_per_vector_, index);
  }
  packed_ = WordStorage(std::move(arena));
}

MultiScaleCircularEncoder::MultiScaleCircularEncoder(
    Basis finest, std::vector<std::size_t> scales, double period,
    std::uint64_t seed, WordStorage bound_arena)
    : scales_(std::move(scales)),
      period_(period),
      seed_(seed),
      packed_(std::move(bound_arena)) {
  require(!scales_.empty(), "MultiScaleCircularEncoder",
          "need at least one scale");
  for (std::size_t s = 0; s < scales_.size(); ++s) {
    require(scales_[s] >= 2 && (s == 0 || scales_[s] > scales_[s - 1]),
            "MultiScaleCircularEncoder",
            "restored scales must be >= 2 and strictly increasing");
  }
  require(std::isfinite(period_) && period_ > 0.0,
          "MultiScaleCircularEncoder", "period must be positive");
  require(finest.size() == scales_.back(), "MultiScaleCircularEncoder",
          "finest basis size must equal the finest scale");
  words_per_vector_ = bits::words_for(finest.dimension());
  require(packed_.size() == finest.size() * words_per_vector_,
          "MultiScaleCircularEncoder",
          "bound arena word count disagrees with the finest scale");
  bases_.push_back(std::move(finest));
}

MultiScaleCircularEncoder::MultiScaleCircularEncoder(
    Basis finest, std::vector<std::size_t> scales, double period,
    std::uint64_t seed, std::span<const std::uint64_t> bound_arena, borrow_t)
    : MultiScaleCircularEncoder(std::move(finest), std::move(scales), period,
                                seed, WordStorage(bound_arena, borrowed)) {
  const std::uint64_t tail = bits::tail_mask(bases_.back().dimension());
  const auto words = packed_.words();
  for (std::size_t row = 0; row < scales_.back(); ++row) {
    require((words[(row + 1) * words_per_vector_ - 1] & ~tail) == 0,
            "MultiScaleCircularEncoder",
            "bound arena rows must keep tail bits zero");
  }
}

MultiScaleCircularEncoder::MultiScaleCircularEncoder(
    Basis finest, std::vector<std::size_t> scales, double period,
    std::uint64_t seed, std::span<const std::uint64_t> bound_arena, borrow_t,
    unchecked_t)
    : MultiScaleCircularEncoder(std::move(finest), std::move(scales), period,
                                seed, WordStorage(bound_arena, borrowed)) {}

std::size_t MultiScaleCircularEncoder::index_of(double value) const {
  const auto m = static_cast<double>(bases_.back().size());
  double wrapped = std::fmod(value, period_);
  if (wrapped < 0.0) {
    wrapped += period_;
  }
  const auto index =
      static_cast<std::size_t>(std::llround(wrapped / period_ * m));
  return index % bases_.back().size();
}

double MultiScaleCircularEncoder::value_of(std::size_t index) const {
  require(index < bases_.back().size(),
          "MultiScaleCircularEncoder::value_of", "index out of range");
  return static_cast<double>(index) * period_ /
         static_cast<double>(bases_.back().size());
}

HypervectorView MultiScaleCircularEncoder::encode(double value) const {
  return row_view(packed_.words(), bases_.back().dimension(),
                  words_per_vector_, index_of(value));
}

}  // namespace hdc
