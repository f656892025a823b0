#ifndef HDC_SERVE_LOCAL_PREDICTOR_HPP
#define HDC_SERVE_LOCAL_PREDICTOR_HPP

/// \file local_predictor.hpp
/// \brief The in-process Predictor: a hot-swappable model plus the
/// online-adaptation overlay.
///
/// Each micro-batch is served in one `hdc::runtime` thread-pool round: each
/// chunk runs `predict_rows()` (predictor.hpp) over its rows with a
/// chunk-local scratch row and the active generation's model — the same
/// per-row step `AdaptiveState` runs over its overlay — bit-identical to
/// calling `Pipeline::classify`/`regress` per row for any batch size and
/// thread count.  The model sits in a `SwapState`: each batch loads the
/// active generation and keeps it until it is answered, and `reload()` maps
/// and fully validates the replacement off to the side before one pointer
/// flip, so a rejected reload leaves the incumbent serving untouched.
///
/// Feedback (`adapt`, `export_delta`, `adapted`) lands in an `AdaptiveState`
/// pinned to the current generation, created on first use and replaced —
/// its feedback discarded, by design — once a reload has retired that
/// generation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "hdc/io/reload.hpp"
#include "hdc/runtime/thread_pool.hpp"
#include "hdc/serve/adaptive_state.hpp"
#include "hdc/serve/predictor.hpp"
#include "hdc/serve/swap_state.hpp"

namespace hdc::serve {

class LocalPredictor final : public Predictor {
 public:
  /// Serves \p loaded as generation 0, reloadable from \p source_path.
  /// Without a \p pool, one of \p num_threads workers (0 = hardware
  /// concurrency) is created on the first predicted batch — so an
  /// impossible thread count surfaces where a prediction was asked for, and
  /// a control-only server never pays for a pool.  Reloads always
  /// checksum-verify (a hot swap must never trust unvetted bytes) and map
  /// with \p mapping.
  LocalPredictor(io::LoadedPipeline loaded, std::string source_path,
                 runtime::ThreadPoolPtr pool = nullptr,
                 std::size_t num_threads = 0, io::MappingOptions mapping = {});

  /// Serves \p pipeline, whose snapshot mapping the caller keeps alive.  No
  /// file backs it: reload("") and export_delta() fail.
  LocalPredictor(io::Pipeline pipeline, runtime::ThreadPoolPtr pool,
                 std::size_t num_threads);

  ~LocalPredictor() override;

  [[nodiscard]] io::PipelineKind kind() const override;
  [[nodiscard]] io::PipelineInput input() const override;
  [[nodiscard]] std::size_t num_features() const override;

  [[nodiscard]] Predictions predict(const SampleBatch& batch,
                                    HeadMode head) override;
  AdaptOutcome adapt(const Sample& sample, double target) override;

  /// \p path may be an HDCS delta file, applied in memory against the
  /// active generation's base snapshot; a full snapshot becomes the new
  /// base.  \throws io::SnapshotError on any validation failure.
  std::uint64_t reload(const std::string& path) override;
  std::uint64_t export_delta(const std::string& out_path) override;

  [[nodiscard]] std::uint64_t generation() const override;
  [[nodiscard]] std::string source() const override;
  [[nodiscard]] std::shared_ptr<Predictor> adapted() override;

  /// The active generation.
  [[nodiscard]] ServingStatePtr state() const noexcept { return swap_.load(); }

  /// The overlay over the active generation that adapt(), export_delta()
  /// and adapted() work on, created on first use.
  [[nodiscard]] AdaptiveStatePtr overlay();

 private:
  /// The pool, created on the first call unless one was passed in.
  [[nodiscard]] runtime::ThreadPool& pool();

  SwapState swap_;
  io::MappingOptions mapping_;
  std::size_t num_threads_;
  std::once_flag pool_once_;
  runtime::ThreadPoolPtr pool_;
  /// Guards the overlay slot (not the overlay's own updates —
  /// AdaptiveState has its own mutex).
  std::mutex mutex_;
  AdaptiveStatePtr adaptive_;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_LOCAL_PREDICTOR_HPP
