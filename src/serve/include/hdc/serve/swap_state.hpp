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
///  * `SwapState` holds the *active* state behind a mutex.  A serving loop
///    `load()`s — one uncontended lock and a refcount bump — at each
///    micro-batch boundary and keeps its copy for the duration of the
///    batch; a reloader builds and validates a complete replacement off to
///    the side and `swap_to()`s it in one pointer flip under the same lock.
///
/// In-flight batches therefore always finish on the mapping they started
/// on, new batches pick up the replacement immediately, and the old
/// mapping is unmapped exactly when its last in-flight holder releases it
/// — no lock is ever held across a predict or an unmap.

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

/// Mutex-guarded holder of the active ServingState (see the file comment for
/// the protocol).  load() copies the pointer under the lock; swap_to()
/// validates the replacement against the incumbent and flips it under the
/// same lock, which also serializes concurrent reloaders.
class SwapState {
 public:
  /// Starts serving \p initial; reloads count generations up from it.
  /// \throws std::invalid_argument if \p initial is null.
  explicit SwapState(ServingStatePtr initial);

  /// The currently active state (never null).
  [[nodiscard]] ServingStatePtr load() const noexcept;

  /// Validates \p replacement against the incumbent (`io::ensure_swappable`
  /// — same kind, same arity) and makes it the active state.
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
  mutable std::mutex mutex_;  ///< Guards both fields below.
  ServingStatePtr active_;
  std::uint64_t next_generation_;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_SWAP_STATE_HPP
