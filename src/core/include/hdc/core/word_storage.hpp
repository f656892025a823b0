#ifndef HDC_CORE_WORD_STORAGE_HPP
#define HDC_CORE_WORD_STORAGE_HPP

/// \file word_storage.hpp
/// \brief Owning-or-borrowed packed-word storage for arena-backed containers.
///
/// `Basis`, `CentroidClassifier` and `hdc::runtime::VectorArena` all keep
/// their hypervectors in one contiguous arena of 64-bit words.  `WordStorage`
/// is the storage slot behind those arenas: either an owning
/// `std::vector<std::uint64_t>` (the default, heap-backed) or a borrowed
/// `std::span` over words owned elsewhere — typically a read-only mmap of a
/// snapshot file (`hdc::io::MappedSnapshot`), where adopting the mapping
/// instead of copying it is what makes model cold-start latency independent
/// of model size.
///
/// Semantics:
///  * A borrowed WordStorage is read-only; `mutable_words()` and `owned()`
///    throw `std::logic_error` on it.
///  * Copying is shallow for borrowed storage (the copy aliases the same
///    underlying words) and deep for owning storage — exactly the semantics
///    of the `std::span` / `std::vector` members it wraps.
///  * Like a view, borrowed storage must not outlive the memory it points
///    into; containers built over a snapshot mapping are valid only while
///    the snapshot is open.

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace hdc {

/// Tag selecting non-owning (borrowed) construction, mirroring
/// std::in_place-style disambiguation tags.
struct borrow_t {
  explicit borrow_t() = default;
};
inline constexpr borrow_t borrowed{};

/// Tag selecting trusted construction that skips invariant re-validation.
/// Only for callers that can prove the invariants hold by construction —
/// e.g. a snapshot section whose checksum matched bytes produced by the
/// validating writer.  Violating the precondition is undefined behaviour of
/// the container, so the safe validating overloads remain the default.
struct unchecked_t {
  explicit unchecked_t() = default;
};
inline constexpr unchecked_t unchecked{};

/// Allocator handing out cache-line (64-byte) aligned blocks.  The fused
/// XOR+popcount sweeps read rows with full-width vector loads, and a row
/// that starts on a cache line never splits a load across two lines: one
/// 16 x 1280-byte nearest scan on an AVX-512 Xeon took ~213 ns with query
/// and arena aligned, ~255 ns with one of them malloc-aligned (16 bytes)
/// and ~295 ns with both.  Snapshot payloads are aligned by the format.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t alignment{64};

  CacheLineAllocator() = default;
  template <class U>
  constexpr CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), alignment));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, alignment);
  }
  bool operator==(const CacheLineAllocator&) const = default;
};

/// Owning packed words that start on a cache line (see CacheLineAllocator).
using AlignedWords =
    std::vector<std::uint64_t, CacheLineAllocator<std::uint64_t>>;

/// Contiguous packed-word storage: owning vector or borrowed span.
class WordStorage {
 public:
  /// Empty owning storage.
  WordStorage() = default;

  /// Owning storage adopting \p words (implicit, so existing
  /// vector-adopting call sites keep working unchanged).
  WordStorage(std::vector<std::uint64_t> words)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(words)) {}

  /// Borrowed storage over externally owned words (e.g. an mmap region).
  WordStorage(std::span<const std::uint64_t> words, borrow_t) noexcept
      : view_(words), owning_(false) {}

  /// True when this storage owns its words on the heap.
  [[nodiscard]] bool owning() const noexcept { return owning_; }

  /// The stored words, wherever they live.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return owning_ ? std::span<const std::uint64_t>(owned_) : view_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return words().size(); }

  /// Heap bytes resident for the words: the vector payload when owning,
  /// zero when borrowed (the bytes belong to the mapping, not this object).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return owning_ ? owned_.size() * sizeof(std::uint64_t) : 0;
  }

  /// Mutable access to owning storage.
  /// \throws std::logic_error when the storage is borrowed (read-only).
  [[nodiscard]] std::span<std::uint64_t> mutable_words();

  /// The owning vector itself, for containers that grow/shrink in place.
  /// \throws std::logic_error when the storage is borrowed (read-only).
  [[nodiscard]] std::vector<std::uint64_t>& owned();

  /// Drops growth slack on owning storage; no-op when borrowed.
  void shrink_to_fit() noexcept {
    if (owning_) {
      owned_.shrink_to_fit();
    }
  }

  /// An owning deep copy of the stored words (the crossover from borrowed
  /// snapshot-backed storage back to heap storage).
  [[nodiscard]] WordStorage to_owned() const {
    const auto w = words();
    return WordStorage(std::vector<std::uint64_t>(w.begin(), w.end()));
  }

 private:
  std::vector<std::uint64_t> owned_;
  std::span<const std::uint64_t> view_;
  bool owning_ = true;
};

}  // namespace hdc

#endif  // HDC_CORE_WORD_STORAGE_HPP
