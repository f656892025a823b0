#include "hdc/runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdc::runtime {

namespace {

/// The pool whose worker chunk the current thread is executing, if any; used
/// to turn nested for_chunks deadlocks into an immediate error.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads > max_threads()) {
    throw std::invalid_argument(
        "ThreadPool: num_threads " + std::to_string(num_threads) +
        " exceeds the supported maximum of " + std::to_string(max_threads()));
  }
  size_ = num_threads;
  if (size_ == 0) {
    size_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (size_ == 1) {
    return;
  }
  threads_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(
    std::size_t count, std::size_t chunks, std::size_t chunk) noexcept {
  // ceil-division chunking: the first (count % chunks) chunks get one extra
  // item, so boundaries depend only on (count, chunks).
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const std::size_t begin = chunk * base + std::min(chunk, extra);
  const std::size_t length = base + (chunk < extra ? 1 : 0);
  return {begin, begin + length};
}

std::size_t ThreadPool::num_chunks(std::size_t count) const noexcept {
  return std::min(count, size_);
}

void ThreadPool::for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) {
    return;
  }
  if (current_pool == this) {
    throw std::logic_error(
        "ThreadPool::for_chunks: nested call from one of this pool's own "
        "worker chunks would deadlock; use a separate pool for inner batches");
  }
  // One fork-join round at a time; concurrent callers queue up here.
  const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  if (threads_.empty()) {
    // The one chunk runs here; the caller may itself be another pool's
    // worker, whose marker comes back once the chunk is done.
    const ThreadPool* const outer = std::exchange(current_pool, this);
    try {
      fn(0, count, 0);
    } catch (...) {
      current_pool = outer;
      throw;
    }
    current_pool = outer;
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  job_count_ = count;
  job_chunks_ = num_chunks(count);
  next_chunk_ = 0;
  pending_chunks_ = job_chunks_;
  first_error_ = nullptr;
  ++job_generation_;
  work_ready_.notify_all();
  work_done_.wait(lock, [this] { return pending_chunks_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  std::size_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] {
      return stopping_ ||
             (job_ != nullptr && job_generation_ != seen_generation);
    });
    if (stopping_) {
      return;
    }
    seen_generation = job_generation_;
    // Claim chunks until this round runs out.
    while (next_chunk_ < job_chunks_) {
      const std::size_t chunk = next_chunk_++;
      const auto* job = job_;
      const std::size_t count = job_count_;
      const std::size_t chunks = job_chunks_;
      lock.unlock();
      std::exception_ptr error;
      current_pool = this;
      try {
        const auto [begin, end] = chunk_range(count, chunks, chunk);
        (*job)(begin, end, chunk);
      } catch (...) {
        error = std::current_exception();
      }
      current_pool = nullptr;
      lock.lock();
      if (error && !first_error_) {
        first_error_ = error;
      }
      if (--pending_chunks_ == 0) {
        work_done_.notify_all();
      }
    }
  }
}

}  // namespace hdc::runtime
