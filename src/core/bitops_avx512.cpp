// AVX-512 kernel variant: 512-bit XOR + native vector popcount
// (VPOPCNTDQ).  _mm512_popcnt_epi64 counts eight words per instruction;
// the per-lane counts accumulate in a vector register across the row and
// reduce once at the end — the widest per-cycle popcount x86 offers, and
// exactly the workload shape HDC inference is (wide bitwise sweeps).
//
// Compiled with -mavx512f/bw/vl/vpopcntdq only when the compiler supports
// them; otherwise this TU is the nullptr stub.  The dispatcher offers the
// variant only when the running CPU reports avx512f + avx512vpopcntdq, so
// none of this code executes on narrower machines.

#include "kernel_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

namespace hdc::bits::detail {

namespace {

/// The sum of the 8 64-bit lanes, stored and added in scalar code: GCC 12's
/// _mm512_reduce_add_epi64 trips -Werror=uninitialized inside its own
/// header (an _mm256_undefined_si256 in _mm512_extracti64x4_epi64).
std::size_t lane_sum(__m512i v) noexcept {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  std::size_t total = 0;
  for (const std::uint64_t lane : lanes) {
    total += static_cast<std::size_t>(lane);
  }
  return total;
}

std::size_t avx512_hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) noexcept {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  std::size_t i = 0;
  // Two 512-bit lanes (16 words) per iteration with independent
  // accumulators: popcount latency overlaps across the pair.
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i));
    const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x0));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(x1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(x));
  }
  std::size_t total = lane_sum(_mm512_add_epi64(acc0, acc1));
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

NearestMatch avx512_nearest(const std::uint64_t* query, std::size_t words,
                            const std::uint64_t* arena, std::size_t stride,
                            std::size_t count) noexcept {
  return nearest_rows(avx512_hamming, query, words, arena, stride, count);
}

void avx512_hamming_many(const std::uint64_t* query, std::size_t words,
                         const std::uint64_t* arena, std::size_t stride,
                         std::size_t count, std::size_t* out) noexcept {
  hamming_rows(avx512_hamming, query, words, arena, stride, count, out);
}

std::size_t avx512_count_ones(const std::uint64_t* words,
                              std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
  }
  std::size_t total = lane_sum(acc);
  for (; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

void avx512_xor_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(dst + i),
                                         _mm512_loadu_si512(src + i)));
  }
  for (; i < n; ++i) {
    dst[i] ^= src[i];
  }
}

void avx512_xor_rows(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                         _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

constexpr Kernels kAvx512Kernels = {
    .name = "avx512",
    .supported = cpu_has_avx512,
    .hamming = avx512_hamming,
    .nearest_hamming = avx512_nearest,
    .hamming_many = avx512_hamming_many,
    .count_ones = avx512_count_ones,
    .xor_into = avx512_xor_into,
    .xor_rows = avx512_xor_rows,
};

}  // namespace

const Kernels* avx512_variant() noexcept { return &kAvx512Kernels; }

}  // namespace hdc::bits::detail

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace hdc::bits::detail {

const Kernels* avx512_variant() noexcept { return nullptr; }

}  // namespace hdc::bits::detail

#endif
