#ifndef HDC_RUNTIME_BATCH_REGRESSOR_HPP
#define HDC_RUNTIME_BATCH_REGRESSOR_HPP

/// \file batch_regressor.hpp
/// \brief Batched training and inference over an HDRegressor.
///
/// Training binds each encoded input to its label vector in parallel,
/// accumulating into per-thread BundleAccumulators that merge into the
/// wrapped model (bit-identical to the sequential add_sample stream for any
/// thread count).  Inference is a loop over the model's per-row readout
/// (HDRegressor::predict / label_distances): one fused XOR+popcount sweep
/// of the arena row against the keyed label rows M ⊗ L_l, the same kernel
/// as every other nearest-neighbour scan in the library.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hdc/core/regressor.hpp"
#include "hdc/runtime/arena.hpp"
#include "hdc/runtime/batch_encoder.hpp"

namespace hdc::runtime {

/// Thread-parallel wrapper around an HDRegressor.
class BatchRegressor {
 public:
  /// Owns a fresh model. \throws std::invalid_argument as the HDRegressor
  /// constructor, or if pool is null.
  BatchRegressor(ScalarEncoderPtr labels, std::uint64_t seed,
                 ThreadPoolPtr pool);

  /// Adopts an existing finalized model — typically one restored from an
  /// hdc::io snapshot, whose label basis may borrow a read-only mapping (the
  /// engine never mutates it on the predict path; fit() on an
  /// inference-only model throws std::logic_error as the model itself does).
  /// \throws std::invalid_argument if the model is not finalized or pool is
  /// null.
  BatchRegressor(HDRegressor model, ThreadPoolPtr pool);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return model_.dimension();
  }

  /// The wrapped model (e.g. for finalize() and serialization).
  [[nodiscard]] HDRegressor& model() noexcept { return model_; }
  [[nodiscard]] const HDRegressor& model() const noexcept { return model_; }

  /// Accumulates one (encoded input, label) pair per arena row, in parallel.
  /// Equivalent to calling model().add_sample for every row in order; call
  /// model().finalize() (or fit_finalize) afterwards.
  /// \throws std::invalid_argument if sizes or dimensions mismatch.
  void fit(const VectorArena& inputs, std::span<const double> labels);

  /// fit() followed by model().finalize().
  void fit_finalize(const VectorArena& inputs, std::span<const double> labels);

  /// Paper-faithful prediction for every arena row, in parallel; out[i] ==
  /// model().predict(queries.extract(i)) for all i, for any thread count.
  /// \throws std::logic_error if the model is not finalized;
  /// std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::vector<double> predict(const VectorArena& queries) const;

  /// p10/p50/p90 quantile band (HDRegressor::predict_band) for every arena
  /// row, in parallel; out[i] == model().predict_band(...) for all i, for
  /// any thread count — the batched distributional head.
  /// \throws as predict().
  [[nodiscard]] std::vector<Band> predict_band(
      const VectorArena& queries) const;

  /// Integer-accumulator prediction (HDRegressor::predict_integer) for every
  /// arena row, in parallel.  Does not require finalize().
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::vector<double> predict_integer(
      const VectorArena& queries) const;

 private:
  HDRegressor model_;
  ThreadPoolPtr pool_;
};

}  // namespace hdc::runtime

#endif  // HDC_RUNTIME_BATCH_REGRESSOR_HPP
