// AVX2 backend: 4 x 64-bit lanes per register. Compiled with -mavx2 (this
// file only, on x86-64 targets); the self-gate below turns the TU into a
// nullptr stub on any other target.
#include "util/simd/backends.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "util/simd/kernels.hpp"

namespace starfish::util::simd {
namespace {

struct Avx2 {
  using vec = __m256i;
  static constexpr size_t kLanes = 4;

  static vec loadu(const std::byte* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::byte* p, vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vec load64(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu64(uint64_t* p, vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vec xor_(vec a, vec b) { return _mm256_xor_si256(a, b); }
  static vec add64(vec a, vec b) { return _mm256_add_epi64(a, b); }
  /// lo32(v) * hi32(v) per 64-bit lane.
  static vec mul_lo32_hi32(vec v) { return _mm256_mul_epu32(v, _mm256_srli_epi64(v, 32)); }
  /// 64-bit lane i -> lane i^1 (pairs sit inside each 128-bit half).
  static vec swap_pairs(vec v) { return _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)); }

  template <unsigned kElem>
  static vec bswap(vec v) {
    // Per-128-bit-lane byte shuffle; the reversal pattern repeats every
    // element, so one control vector handles both halves.
    if constexpr (kElem == 4) {
      const __m256i ctl = _mm256_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
                                           3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
      return _mm256_shuffle_epi8(v, ctl);
    } else {
      const __m256i ctl = _mm256_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
                                           7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8);
      return _mm256_shuffle_epi8(v, ctl);
    }
  }
};

uint64_t fingerprint_avx2(const std::byte* p, size_t n) {
  return detail::fingerprint_shell(p, n, detail::fp_accumulate_vec<Avx2>);
}

template <unsigned kElem>
void bswap_avx2(std::byte* dst, const std::byte* src, size_t n) {
  detail::bswap_vec<Avx2, kElem>(dst, src, n);
}

void widen_avx2(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i in = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 4 * i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8 * i), _mm256_cvtepi32_epi64(in));
  }
  for (; i < n; ++i) detail::widen_one(dst + 8 * i, src + 4 * i);
}

void narrow_avx2(std::byte* dst, const std::byte* src, size_t n) {
  const __m256i pick_lo = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i in = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 8 * i));
    const __m256i packed = _mm256_permutevar8x32_epi32(in, pick_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 4 * i), _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) detail::narrow_one(dst + 4 * i, src + 8 * i);
}

size_t mismatch_avx2(const std::byte* a, const std::byte* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const auto eq = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xffffffffu) return i + static_cast<size_t>(std::countr_zero(~eq));
  }
  return detail::mismatch_tail(a, b, i, n);
}

void gather64_avx2(std::byte* dst, const std::byte* src, size_t stride, size_t n) {
  const __m256i vidx = _mm256_setr_epi64x(0, static_cast<long long>(stride),
                                          static_cast<long long>(2 * stride),
                                          static_cast<long long>(3 * stride));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_i64gather_epi64(reinterpret_cast<const long long*>(src + i * stride), vidx, 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8 * i), v);
  }
  detail::gather64_tail(dst, src, stride, i, n);
}

constexpr Ops kAvx2Table = {
    Isa::kAvx2,  fingerprint_avx2, bswap_avx2<4>, bswap_avx2<8>, widen_avx2,
    narrow_avx2, mismatch_avx2,    gather64_avx2,
};

}  // namespace

const Ops* avx2_ops() { return &kAvx2Table; }

}  // namespace starfish::util::simd

#else  // !__AVX2__

namespace starfish::util::simd {
const Ops* avx2_ops() { return nullptr; }
}  // namespace starfish::util::simd

#endif
