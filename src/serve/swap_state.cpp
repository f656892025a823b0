#include "hdc/serve/swap_state.hpp"

#include <stdexcept>

namespace hdc::serve {

SwapState::SwapState(ServingStatePtr initial) {
  if (initial == nullptr) {
    throw std::invalid_argument("SwapState: initial state must not be null");
  }
  next_generation_ = initial->generation() + 1;
  active_ = std::move(initial);
}

ServingStatePtr SwapState::load() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

ServingStatePtr SwapState::swap_to(io::LoadedPipeline replacement,
                                   std::string source_path,
                                   std::string base_path) {
  std::unique_lock<std::mutex> lock(mutex_);
  io::ensure_swappable(replacement.pipeline, active_->pipeline());
  auto fresh = std::make_shared<const ServingState>(
      std::move(replacement), next_generation_++, std::move(source_path),
      std::move(base_path));
  ServingStatePtr retired = std::exchange(active_, fresh);
  lock.unlock();
  // `retired` drops here, outside the lock: when no batch still holds it,
  // its mapping is unmapped without stalling readers.
  return fresh;
}

}  // namespace hdc::serve
