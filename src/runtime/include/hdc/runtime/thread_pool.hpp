#ifndef HDC_RUNTIME_THREAD_POOL_HPP
#define HDC_RUNTIME_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// \brief A small persistent std::thread pool for batch fan-out.
///
/// The batch engines split work into one contiguous chunk per worker and
/// block until all chunks finish.  Chunking is *static and deterministic*:
/// chunk boundaries depend only on (count, worker count), and every batch
/// API is defined so its result is identical for any worker count — either
/// each index writes its own output slot, or per-chunk accumulators are
/// merged with commutative integer addition.
///
/// A one-worker pool spawns no thread: each round runs on the calling
/// thread, since handing one chunk to one worker only adds a wake-up and a
/// join to the round.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hdc::runtime {

/// Persistent worker pool; all scheduling is fork-join over index ranges.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers; 0 picks std::thread::hardware_concurrency
  /// (at least 1), and a one-worker pool spawns none (see the file comment).
  /// \throws std::invalid_argument when num_threads exceeds max_threads() —
  /// rejecting an absurd count up front beats spawning thousands of threads
  /// before std::thread finally fails.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Upper bound accepted by the constructor.
  [[nodiscard]] static constexpr std::size_t max_threads() noexcept {
    return 4096;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of workers (chunks a round may use).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Splits [0, count) into num_chunks(count) contiguous chunks and runs
  /// fn(chunk_begin, chunk_end, chunk_index) on the workers (on the caller
  /// for a one-worker pool); blocks until all chunks complete.  Chunk
  /// boundaries are deterministic in (count, size()).  The first exception
  /// thrown by any chunk is rethrown on the caller.
  /// \throws std::logic_error when called from inside one of this pool's own
  /// worker chunks (the nested round could never be scheduled: the outer
  /// round holds the pool until it finishes — a silent deadlock otherwise).
  void for_chunks(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Number of chunks a for_chunks(count, ...) round will use; callers
  /// pre-sizing per-chunk state (e.g. partial accumulators) must use this
  /// rather than re-deriving the chunking policy.
  [[nodiscard]] std::size_t num_chunks(std::size_t count) const noexcept;

  /// The [begin, end) range of chunk \p chunk when \p count items are split
  /// into \p chunks chunks; exposed so callers can pre-size per-chunk state.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_range(
      std::size_t count, std::size_t chunks, std::size_t chunk) noexcept;

 private:
  void worker_loop();

  std::size_t size_ = 0;
  std::vector<std::thread> threads_;  ///< Empty for a one-worker pool.
  std::mutex submit_mutex_;  ///< Serializes concurrent for_chunks callers.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;

  // State of the current fork-join round, guarded by mutex_.
  const std::function<void(std::size_t, std::size_t, std::size_t)>* job_ =
      nullptr;
  std::size_t job_count_ = 0;
  std::size_t job_chunks_ = 0;
  std::size_t job_generation_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t pending_chunks_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

}  // namespace hdc::runtime

#endif  // HDC_RUNTIME_THREAD_POOL_HPP
