// Generic kernel bodies shared by the per-ISA translation units.
//
// scalar.cpp calls the scalar bodies below directly. Each vector backend TU
// (avx2.cpp, avx512.cpp) defines a small fixed-width vector type — N 64-bit
// lanes with load/store, xor, add, 32x32->64 multiply, pair-swap shuffle and
// byteswap — and instantiates the templates below with it. The kernels are
// written lane-by-lane so every instantiation computes the same function;
// only the number of lanes retired per step differs.
//
// Everything here is `static` (internal linkage) on purpose: these bodies
// are compiled once per backend TU under that TU's -m flags. A vague
// `inline` would merge the instantiations at link time and could leave the
// AVX-compiled copy as the survivor, executing AVX instructions on the
// scalar path of a machine without them.
//
// Tail handling (the scheme every kernel shares): the vector body retires
// whole stripes/registers only; the remainder runs through the *same*
// scalar epilogue in every backend. For the fingerprint that epilogue is
// the 8/4/1-byte XXH64-style tail below; for byteswap/widen/narrow it is a
// per-element loop. Identical epilogue + lane-exact body = bit-identical
// kernels, which is what the differential suite pins.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace starfish::util::simd::detail {

// XXH64/XXH3 primes (shared with the pre-PR9 fingerprint).
inline constexpr uint64_t kPrime1 = 11400714785074694791ull;
inline constexpr uint64_t kPrime2 = 14029467366897019727ull;
inline constexpr uint64_t kPrime3 = 1609587929392839161ull;
inline constexpr uint64_t kPrime4 = 9650029242287828579ull;
inline constexpr uint64_t kPrime5 = 2870177450012600261ull;

/// Per-lane accumulator seeds and xor-keys for the 8-lane wide fingerprint
/// (64-byte stripes). Constants only feed mixing, so distinctness is all
/// that matters; these extend the old 4-register AVX2 seeds to 8 lanes.
inline constexpr uint64_t kFpInit[8] = {
    kPrime3, 0ull - kPrime1, kPrime1,           kPrime2,
    kPrime4, 0ull - kPrime2, kPrime5,           kPrime1 + kPrime2,
};
inline constexpr uint64_t kFpKey[8] = {
    kPrime1,           kPrime2,           kPrime3,           0ull - kPrime2,
    kPrime1 ^ kPrime5, kPrime2 ^ kPrime4, kPrime3 ^ kPrime1, kPrime5,
};

static inline uint64_t rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

static inline uint64_t load_le64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

static inline uint64_t avalanche64(uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// One fingerprint lane step, the function every backend must reproduce:
///   acc += lo32(data ^ key) * hi32(data ^ key) + data_of_pair_lane
/// (the XXH3 accumulate: a non-commutative 32x32 multiply of the keyed
/// word plus the unkeyed neighbor, so lane order and pairing both matter).
static inline uint64_t fp_lane_step(uint64_t acc, uint64_t data, uint64_t pair, uint64_t key) {
  const uint64_t mixed = data ^ key;
  return acc + (mixed & 0xffffffffull) * (mixed >> 32) + pair;
}

/// Scalar reference stripe loop (also the body of the kScalar table).
static inline void fp_accumulate_scalar(uint64_t acc[8], const std::byte* p, size_t stripes) {
  for (size_t s = 0; s < stripes; ++s) {
    const std::byte* stripe = p + s * 64;
    uint64_t d[8];
    for (int i = 0; i < 8; ++i) d[i] = load_le64(stripe + 8 * i);
    for (int i = 0; i < 8; ++i) acc[i] = fp_lane_step(acc[i], d[i], d[i ^ 1], kFpKey[i]);
  }
}

/// Vector stripe loop: B supplies `vec` (B::kLanes u64 lanes, kLanes in
/// {4,8}), loadu/load64/storeu64, xor_/add64, mul_lo32_hi32 and
/// swap_pairs (lane i -> lane i^1, pairs never straddle a register because
/// kLanes is even).
template <class B>
static inline void fp_accumulate_vec(uint64_t acc[8], const std::byte* p, size_t stripes) {
  constexpr size_t kW = B::kLanes;
  constexpr size_t kR = 8 / kW;
  typename B::vec a[kR], key[kR];
  for (size_t r = 0; r < kR; ++r) {
    a[r] = B::load64(acc + r * kW);
    key[r] = B::load64(kFpKey + r * kW);
  }
  // A stripe's contribution (mul + pair) does not depend on acc, and u64
  // addition is associative and commutative mod 2^64, so summing the even
  // and odd stripes in two independent accumulators is bit-identical to
  // the scalar reference's sequential order while halving the loop-carried
  // add chain (the differential suite pins the identity).
  auto contribution = [&](const std::byte* stripe, size_t r) {
    const typename B::vec data = B::loadu(stripe + r * kW * 8);
    const typename B::vec mixed = B::xor_(data, key[r]);
    return B::add64(B::mul_lo32_hi32(mixed), B::swap_pairs(data));
  };
  typename B::vec c0[kR], c1[kR];
  for (size_t r = 0; r < kR; ++r) {
    c0[r] = B::xor_(key[r], key[r]);  // zero
    c1[r] = c0[r];
  }
  size_t s = 0;
  for (; s + 2 <= stripes; s += 2) {
    const std::byte* stripe = p + s * 64;
    for (size_t r = 0; r < kR; ++r) c0[r] = B::add64(c0[r], contribution(stripe, r));
    for (size_t r = 0; r < kR; ++r) c1[r] = B::add64(c1[r], contribution(stripe + 64, r));
  }
  if (s < stripes) {
    for (size_t r = 0; r < kR; ++r) c0[r] = B::add64(c0[r], contribution(p + s * 64, r));
  }
  for (size_t r = 0; r < kR; ++r) {
    B::storeu64(acc + r * kW, B::add64(a[r], B::add64(c0[r], c1[r])));
  }
}

/// Shared fingerprint shell: stripe accumulation (via `acc_fn`, the only
/// ISA-dependent part), lane merge, then the common scalar tail.
template <class AccFn>
static inline uint64_t fingerprint_shell(const std::byte* p, size_t n, AccFn acc_fn) {
  uint64_t h;
  size_t i = 0;
  if (n >= 64) {
    uint64_t acc[8];
    std::memcpy(acc, kFpInit, sizeof(acc));
    const size_t stripes = n / 64;
    acc_fn(acc, p, stripes);
    i = stripes * 64;
    h = static_cast<uint64_t>(n) * kPrime1;
    for (uint64_t lane : acc) h = (h ^ lane) * kPrime1 + kPrime3;
  } else {
    h = kPrime5 + static_cast<uint64_t>(n) * kPrime1;
  }
  for (; i + 8 <= n; i += 8) {
    h = rotl64(h ^ (rotl64(load_le64(p + i) * kPrime2, 31) * kPrime1), 27) * kPrime1 + kPrime4;
  }
  if (i + 4 <= n) {
    uint32_t v;
    std::memcpy(&v, p + i, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
    h = rotl64(h ^ (static_cast<uint64_t>(v) * kPrime1), 23) * kPrime2 + kPrime3;
    i += 4;
  }
  for (; i < n; ++i) {
    h = rotl64(h ^ (static_cast<uint64_t>(static_cast<uint8_t>(p[i])) * kPrime5), 11) * kPrime1;
  }
  return avalanche64(h);
}

/// Shared scalar epilogue of the mismatch kernel: first index in [i, n)
/// where a and b differ, or n. Also the whole scalar reference body.
static inline size_t mismatch_tail(const std::byte* a, const std::byte* b, size_t i, size_t n) {
  for (; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

/// Shared scalar epilogue of the strided gather: element j in [i, n) of dst
/// is the 8 bytes at src + j*stride. Also the whole scalar reference body
/// (pure data movement, so bit-identity across backends is structural).
static inline void gather64_tail(std::byte* dst, const std::byte* src, size_t stride, size_t i,
                                 size_t n) {
  for (; i < n; ++i) std::memcpy(dst + 8 * i, src + i * stride, 8);
}

// --- per-element scalar steps (the shared tails of the movement kernels) ---

template <unsigned kElem>
static inline void bswap_one(std::byte* dst, const std::byte* src) {
  if constexpr (kElem == 4) {
    uint32_t v;
    std::memcpy(&v, src, 4);
    v = __builtin_bswap32(v);
    std::memcpy(dst, &v, 4);
  } else {
    uint64_t v;
    std::memcpy(&v, src, 8);
    v = __builtin_bswap64(v);
    std::memcpy(dst, &v, 8);
  }
}

static inline void widen_one(std::byte* dst, const std::byte* src) {
  int32_t v;
  std::memcpy(&v, src, 4);
  const int64_t w = v;
  std::memcpy(dst, &w, 8);
}

static inline void narrow_one(std::byte* dst, const std::byte* src) {
  int64_t v;
  std::memcpy(&v, src, 8);
  const int32_t w = static_cast<int32_t>(v);  // truncate (VM ints already wrapped)
  std::memcpy(dst, &w, 4);
}

/// Vector byteswap: whole registers through B::bswap<kElem>, remainder
/// element-wise. Safe in place — each element is read before it is written.
template <class B, unsigned kElem>
static inline void bswap_vec(std::byte* dst, const std::byte* src, size_t n) {
  constexpr size_t kVecBytes = B::kLanes * 8;
  const size_t total = n * kElem;
  size_t i = 0;
  for (; i + kVecBytes <= total; i += kVecBytes) {
    B::storeu(dst + i, B::template bswap<kElem>(B::loadu(src + i)));
  }
  for (; i < total; i += kElem) bswap_one<kElem>(dst + i, src + i);
}

}  // namespace starfish::util::simd::detail
