#include "hdc/serve/swap_state.hpp"

#include <stdexcept>

namespace hdc::serve {

SwapState::SwapState(ServingStatePtr initial) {
  if (initial == nullptr) {
    throw std::invalid_argument("SwapState: initial state must not be null");
  }
  next_generation_ = initial->generation() + 1;
#if defined(__cpp_lib_atomic_shared_ptr)
  active_.store(std::move(initial), std::memory_order_release);
#else
  active_ = std::move(initial);
#endif
}

ServingStatePtr SwapState::load() const noexcept {
#if defined(__cpp_lib_atomic_shared_ptr)
  return active_.load(std::memory_order_acquire);
#else
  const std::lock_guard<std::mutex> lock(active_mutex_);
  return active_;
#endif
}

ServingStatePtr SwapState::swap_to(io::LoadedPipeline replacement,
                                   std::string source_path,
                                   std::string base_path) {
  const std::lock_guard<std::mutex> lock(swap_mutex_);
  const ServingStatePtr incumbent = load();
  io::ensure_swappable(replacement.pipeline, incumbent->pipeline());
  auto fresh = std::make_shared<const ServingState>(
      std::move(replacement), next_generation_++, std::move(source_path),
      std::move(base_path));
#if defined(__cpp_lib_atomic_shared_ptr)
  active_.store(fresh, std::memory_order_release);
#else
  {
    const std::lock_guard<std::mutex> active_lock(active_mutex_);
    active_ = fresh;
  }
#endif
  return fresh;
}

}  // namespace hdc::serve
