#ifndef HDC_SERVE_SWAP_STATE_HPP
#define HDC_SERVE_SWAP_STATE_HPP

/// \file swap_state.hpp
/// \brief The zero-downtime hot-swap holder for a serving replica's model.
///
/// A long-lived server cannot re-open its snapshot per request, and it
/// cannot drop the mapping while a batch encoded over it is still in
/// flight.  The protocol here is the classic RCU-by-shared_ptr shape:
///
///  * `ServingState` is an immutable bundle — the mmapped snapshot and the
///    pipeline restored over it — refcounted by `shared_ptr`.
///  * `SwapState` holds the *active* state behind an atomic pointer.  A
///    serving loop `load()`s at each micro-batch boundary and keeps its
///    copy for the duration of the batch; a reloader builds and validates a
///    complete replacement off to the side and `swap_to()`s it in one
///    atomic flip.
///
/// In-flight batches therefore always finish on the mapping they started
/// on, new batches pick up the replacement immediately, and the old
/// mapping is unmapped exactly when its last in-flight holder releases it
/// — no lock is ever held across a predict.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "hdc/io/reload.hpp"

namespace hdc::serve {

/// One immutable generation of the serving model: the pipeline (and the
/// snapshot mapping it borrows, when this state owns one), tagged with the
/// generation counter, the path it was loaded from (SIGHUP re-reads that
/// path) and the last *full* snapshot it descends from — what delta reloads
/// patch and what `!delta` diffs against.
class ServingState {
 public:
  /// \p base_path defaults to \p source_path (a full snapshot is its own
  /// base).
  ServingState(io::LoadedPipeline loaded, std::uint64_t generation,
               std::string source_path, std::string base_path = {})
      : snapshot_(std::move(loaded.snapshot)),
        pipeline_(std::move(loaded.pipeline)),
        generation_(generation),
        source_path_(std::move(source_path)),
        base_path_(base_path.empty() ? source_path_ : std::move(base_path)) {}

  /// Generation 0 of a pipeline whose mapping the caller keeps alive; no
  /// file backs it, so reloading from its (empty) source fails.
  explicit ServingState(io::Pipeline pipeline)
      : pipeline_(std::move(pipeline)), generation_(0) {}

  [[nodiscard]] const io::Pipeline& pipeline() const noexcept {
    return pipeline_;
  }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] const std::string& source_path() const noexcept {
    return source_path_;
  }
  [[nodiscard]] const std::string& base_path() const noexcept {
    return base_path_;
  }

 private:
  /// Declared before the pipeline, which borrows it: destroyed after it.
  std::optional<io::MappedSnapshot> snapshot_;
  io::Pipeline pipeline_;
  std::uint64_t generation_;
  std::string source_path_;
  std::string base_path_;
};

using ServingStatePtr = std::shared_ptr<const ServingState>;

/// Atomic holder of the active ServingState (see the file comment for the
/// protocol).  load() is wait-free for readers; swap_to() validates the
/// replacement against the incumbent and flips, serializing concurrent
/// reloaders behind a mutex that readers never touch.
class SwapState {
 public:
  /// Starts serving \p initial; reloads count generations up from it.
  /// \throws std::invalid_argument if \p initial is null.
  explicit SwapState(ServingStatePtr initial);

  /// The currently active state (acquire; never null).
  [[nodiscard]] ServingStatePtr load() const noexcept;

  /// Validates \p replacement against the incumbent (`io::ensure_swappable`
  /// — same kind, same arity) and atomically makes it the active state.
  /// Returns the new state (already active when this returns).  On throw
  /// the incumbent stays active and untouched.
  /// \throws io::SnapshotError on a shape mismatch.
  ServingStatePtr swap_to(io::LoadedPipeline replacement,
                          std::string source_path, std::string base_path);

  /// Generation of the active state.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return load()->generation();
  }

 private:
#if defined(__cpp_lib_atomic_shared_ptr)
  std::atomic<ServingStatePtr> active_;
#else
  // Pre-atomic<shared_ptr> toolchains: a spare mutex copy on load().  The
  // hot-swap semantics (in-flight batches drain on the old state) are
  // identical, only reader wait-freedom is lost.
  mutable std::mutex active_mutex_;
  ServingStatePtr active_;
#endif
  std::mutex swap_mutex_;  ///< Serializes swap_to() callers only.
  std::uint64_t next_generation_;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_SWAP_STATE_HPP
