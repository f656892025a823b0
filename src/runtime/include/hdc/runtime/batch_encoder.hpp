#ifndef HDC_RUNTIME_BATCH_ENCODER_HPP
#define HDC_RUNTIME_BATCH_ENCODER_HPP

/// \file batch_encoder.hpp
/// \brief Parallel feature-batch encoding into a VectorArena.
///
/// Wraps any per-sample encoding function (a KeyValueEncoder, a bound
/// composition of scalar encoders, ...) and maps it over a batch of feature
/// rows on the thread pool.  The function writes each row straight into its
/// arena slot; workers own disjoint slots, so the output is bit-identical
/// for every thread count.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "hdc/runtime/arena.hpp"
#include "hdc/runtime/thread_pool.hpp"

namespace hdc::runtime {

/// Shared pool handle: the engines only fan out, they never own policy.
using ThreadPoolPtr = std::shared_ptr<ThreadPool>;

/// Batched feature -> hypervector encoder.
class BatchEncoder {
 public:
  /// Per-sample encoding function: writes the encoding of \p row into
  /// \p out, the row's arena slot (bits::words_for(dimension) words, tail
  /// bits zero).  It must overwrite every word — the slot holds whatever
  /// the arena was last used for — must be safe to call concurrently from
  /// several threads (every encoder in the library is: encoding reads
  /// immutable basis state only), and must be a pure function of its row
  /// for the thread-count-invariance guarantee to hold.
  using EncodeFn = std::function<void(std::span<const double> row,
                                      std::span<std::uint64_t> out)>;

  /// \throws std::invalid_argument if dimension == 0, encode or pool is null.
  BatchEncoder(std::size_t dimension, EncodeFn encode, ThreadPoolPtr pool);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] const ThreadPoolPtr& pool() const noexcept { return pool_; }

  /// Encodes \p rows.size() / row_width samples from a flat row-major
  /// feature buffer.  \throws std::invalid_argument if row_width == 0 or
  /// does not divide rows.size().
  [[nodiscard]] VectorArena encode(std::span<const double> rows,
                                   std::size_t row_width) const;

  /// Encodes one sample per inner vector.
  [[nodiscard]] VectorArena encode(
      std::span<const std::vector<double>> rows) const;

  /// Encodes one sample into \p out (an arena slot or any caller-owned
  /// row), overwriting it, on the calling thread; the batch overloads call
  /// it once per row.  \throws std::invalid_argument if out.size() !=
  /// bits::words_for(dimension()).
  void encode_into(std::span<const double> row,
                   std::span<std::uint64_t> out) const;

 private:
  std::size_t dimension_;
  EncodeFn encode_;
  ThreadPoolPtr pool_;
};

}  // namespace hdc::runtime

#endif  // HDC_RUNTIME_BATCH_ENCODER_HPP
