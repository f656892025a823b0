#ifndef HDC_CORE_COMPOSED_ENCODER_HPP
#define HDC_CORE_COMPOSED_ENCODER_HPP

/// \file composed_encoder.hpp
/// \brief XOR-product composition of scalar encoders over one feature row.
///
/// The paper's circular-regression experiments (Section 6.2) encode one
/// Beijing temperature sample as Y ⊗ D ⊗ H — a level-encoded year bound to
/// circular encodings of day-of-year (period 366) and hour-of-day (period
/// 24).  `ComposedEncoder` generalizes that shape: N scalar encoders with
/// heterogeneous domains (linear or circular, any mix of periods), one
/// feature per encoder, bound into one hypervector by the self-inverse XOR
/// product.  Because binding multiplies correlation kernels
/// (corr(a ⊗ b, a' ⊗ b') = corr(a, a') * corr(b, b')), the composition is
/// similarity-preserving along every input axis at once.
///
/// Encoders are immutable and shared; encoding only reads basis state, so a
/// ComposedEncoder is safe to call concurrently from the hdc::runtime batch
/// engines and serves restored (snapshot-borrowed) parts unchanged.
/// encode_into() XORs the parts' basis views straight into a caller-owned
/// row (an arena slot), so batch encoding allocates nothing per row.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/core/hypervector.hpp"
#include "hdc/core/scalar_encoder.hpp"

namespace hdc {

/// ⊗_i E_i(x_i) encoder: one scalar encoder per feature slot, XOR-bound.
class ComposedEncoder {
 public:
  /// \param parts  One scalar encoder per feature, in feature order; at
  /// least two, all non-null and of the same dimension.
  /// \throws std::invalid_argument otherwise.
  explicit ComposedEncoder(std::vector<ScalarEncoderPtr> parts);

  /// Encodes one feature row: features[i] through parts()[i], XOR-bound.
  /// \throws std::invalid_argument if features.size() != num_features().
  [[nodiscard]] Hypervector encode(std::span<const double> features) const;

  /// encode() written into \p out, which is overwritten (not accumulated
  /// into) and keeps the zero-tail invariant.
  /// \throws std::invalid_argument if features.size() != num_features() or
  /// out.size() != bits::words_for(dimension()).
  void encode_into(std::span<const double> features,
                   std::span<std::uint64_t> out) const;

  [[nodiscard]] std::size_t num_features() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return parts_.front()->dimension();
  }

  /// Sub-encoder \p i.  \throws std::out_of_range if out of range.
  [[nodiscard]] const ScalarEncoder& part(std::size_t i) const;

  /// All sub-encoders, in feature order (for serializers that persist them).
  [[nodiscard]] const std::vector<ScalarEncoderPtr>& parts() const noexcept {
    return parts_;
  }

 private:
  std::vector<ScalarEncoderPtr> parts_;
};

}  // namespace hdc

#endif  // HDC_CORE_COMPOSED_ENCODER_HPP
