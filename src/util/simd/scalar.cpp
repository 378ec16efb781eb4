// Scalar reference kernels: the semantics every vector backend must match.
// Plain element loops, no intrinsics, no memcpy bulk tricks on the main
// loops — this table is what the differential suite compares every vector
// level against, so clarity beats throughput here.
#include "util/simd/backends.hpp"
#include "util/simd/kernels.hpp"

namespace starfish::util::simd {
namespace {

uint64_t fingerprint_scalar(const std::byte* p, size_t n) {
  return detail::fingerprint_shell(p, n, detail::fp_accumulate_scalar);
}

template <unsigned kElem>
void bswap_scalar(std::byte* dst, const std::byte* src, size_t n) {
  for (size_t i = 0; i < n * kElem; i += kElem) detail::bswap_one<kElem>(dst + i, src + i);
}

void widen_scalar(std::byte* dst, const std::byte* src, size_t n) {
  for (size_t i = 0; i < n; ++i) detail::widen_one(dst + 8 * i, src + 4 * i);
}

void narrow_scalar(std::byte* dst, const std::byte* src, size_t n) {
  for (size_t i = 0; i < n; ++i) detail::narrow_one(dst + 4 * i, src + 8 * i);
}

size_t mismatch_scalar(const std::byte* a, const std::byte* b, size_t n) {
  return detail::mismatch_tail(a, b, 0, n);
}

void gather64_scalar(std::byte* dst, const std::byte* src, size_t stride, size_t n) {
  detail::gather64_tail(dst, src, stride, 0, n);
}

constexpr Ops kScalarTable = {
    Isa::kScalar,  fingerprint_scalar, bswap_scalar<4>, bswap_scalar<8>, widen_scalar,
    narrow_scalar, mismatch_scalar,    gather64_scalar,
};

}  // namespace

const Ops* scalar_ops() { return &kScalarTable; }

}  // namespace starfish::util::simd
