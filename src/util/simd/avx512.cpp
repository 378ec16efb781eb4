// AVX-512 backend: 8 x 64-bit lanes per register (F for the integer ALU and
// the 64<->32 converts, BW for the byte shuffle). Compiled with
// -mavx512f -mavx512bw (this file only, on x86-64 targets); nullptr stub
// on any other target.
#include "util/simd/backends.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include "util/simd/kernels.hpp"

namespace starfish::util::simd {
namespace {

struct Avx512 {
  using vec = __m512i;
  static constexpr size_t kLanes = 8;

  static vec loadu(const std::byte* p) { return _mm512_loadu_si512(p); }
  static void storeu(std::byte* p, vec v) { _mm512_storeu_si512(p, v); }
  static vec load64(const uint64_t* p) { return _mm512_loadu_si512(p); }
  static void storeu64(uint64_t* p, vec v) { _mm512_storeu_si512(p, v); }
  static vec xor_(vec a, vec b) { return _mm512_xor_si512(a, b); }
  static vec add64(vec a, vec b) { return _mm512_add_epi64(a, b); }
  static vec mul_lo32_hi32(vec v) { return _mm512_mul_epu32(v, _mm512_srli_epi64(v, 32)); }
  /// 64-bit lane i -> lane i^1 (per-128-bit shuffle, same pattern as AVX2).
  static vec swap_pairs(vec v) { return _mm512_shuffle_epi32(v, _MM_PERM_BADC); }

  template <unsigned kElem>
  static vec bswap(vec v) {
    if constexpr (kElem == 4) {
      const __m512i ctl = _mm512_broadcast_i32x4(
          _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
      return _mm512_shuffle_epi8(v, ctl);
    } else {
      const __m512i ctl = _mm512_broadcast_i32x4(
          _mm_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8));
      return _mm512_shuffle_epi8(v, ctl);
    }
  }
};

uint64_t fingerprint_avx512(const std::byte* p, size_t n) {
  return detail::fingerprint_shell(p, n, detail::fp_accumulate_vec<Avx512>);
}

template <unsigned kElem>
void bswap_avx512(std::byte* dst, const std::byte* src, size_t n) {
  detail::bswap_vec<Avx512, kElem>(dst, src, n);
}

void widen_avx512(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i in = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 4 * i));
    _mm512_storeu_si512(dst + 8 * i, _mm512_cvtepi32_epi64(in));
  }
  for (; i < n; ++i) detail::widen_one(dst + 8 * i, src + 4 * i);
}

void narrow_avx512(std::byte* dst, const std::byte* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i in = _mm512_loadu_si512(src + 8 * i);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4 * i), _mm512_cvtepi64_epi32(in));
  }
  for (; i < n; ++i) detail::narrow_one(dst + 4 * i, src + 8 * i);
}

size_t mismatch_avx512(const std::byte* a, const std::byte* b, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __mmask64 eq = _mm512_cmpeq_epi8_mask(_mm512_loadu_si512(a + i),
                                                _mm512_loadu_si512(b + i));
    if (eq != ~static_cast<__mmask64>(0)) {
      return i + static_cast<size_t>(std::countr_zero(~static_cast<uint64_t>(eq)));
    }
  }
  return detail::mismatch_tail(a, b, i, n);
}

void gather64_avx512(std::byte* dst, const std::byte* src, size_t stride, size_t n) {
  const long long s = static_cast<long long>(stride);
  const __m512i vidx = _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_i64gather_epi64(vidx, src + i * stride, 1);
    _mm512_storeu_si512(dst + 8 * i, v);
  }
  detail::gather64_tail(dst, src, stride, i, n);
}

constexpr Ops kAvx512Table = {
    Isa::kAvx512,  fingerprint_avx512, bswap_avx512<4>, bswap_avx512<8>, widen_avx512,
    narrow_avx512, mismatch_avx512,    gather64_avx512,
};

}  // namespace

const Ops* avx512_ops() { return &kAvx512Table; }

}  // namespace starfish::util::simd

#else  // !(__AVX512F__ && __AVX512BW__)

namespace starfish::util::simd {
const Ops* avx512_ops() { return nullptr; }
}  // namespace starfish::util::simd

#endif
