// Runtime-dispatched SIMD kernels for the data plane.
//
// The per-byte work left on Starfish's hot paths — page fingerprints for
// incremental checkpoints, portable-image endianness/word conversion, MPI
// datatype pack/unpack — runs through this one small kernel table. Each
// kernel exists in up to three implementations (scalar reference, AVX2,
// AVX-512) compiled into separate translation units; a CPU-feature probe
// selects the highest level the host supports on first use, with no
// environment or build-time override. Non-x86-64 targets run the scalar
// table. Tests and A/B benches switch levels in-process with force().
//
// The contract that makes dispatch safe for a deterministic simulator: every
// kernel is *bit-identical* across implementations. The wide fingerprint is
// defined lane-by-lane so the scalar reference and the vector bodies compute
// the same function; byteswap/widen/narrow/gather are pure data movement. A
// seeded differential suite (tests/simd_differential_test.cpp) pins this for
// every level the build carries, so checkpoint bytes, image payloads and
// packed messages do not depend on the host's ISA (DESIGN.md section 16).
//
// The scalar table is the *reference semantics* implementation — simple,
// obviously correct loops, not tuned — which is what the differential tests
// run against. Plain byte copies are std::memcpy, not a table kernel: it
// matched or beat every vector copy measured (EXPERIMENTS.md, "SIMD levels
// and memcpy").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace starfish::util::simd {

/// Instruction-set levels a kernel table can be built for, in preference
/// order (dispatch picks the highest supported one). The values are the
/// sim.simd.dispatch gauge and stay fixed; 1 is unused.
enum class Isa : uint8_t { kScalar = 0, kAvx2 = 2, kAvx512 = 3 };

const char* isa_name(Isa isa);

/// One-shot CPU feature probe (the only place in the tree that calls
/// __builtin_cpu_supports; call sites must never probe locally).
struct CpuFeatures {
  bool avx2 = false;    ///< x86-64 AVX2
  bool avx512 = false;  ///< x86-64 AVX-512 F+BW (all the kernels need)
};
const CpuFeatures& cpu_features();

/// Kernel table. All pointers are always non-null in a table returned by
/// table()/ops(). Buffers are raw byte pointers so callers can hand
/// unaligned slices of wire buffers; kernels use unaligned loads/stores.
struct Ops {
  Isa isa;

  /// 64-bit content fingerprint (page-change detection, replica warm
  /// re-replication). Bit-identical across ISA levels; seed folded length.
  uint64_t (*fingerprint)(const std::byte* p, size_t n);

  /// Byte-reverse n elements of 4/8 bytes each. In-place (dst == src) or
  /// fully disjoint; partial overlap is not allowed.
  void (*bswap32)(std::byte* dst, const std::byte* src, size_t n);
  void (*bswap64)(std::byte* dst, const std::byte* src, size_t n);

  /// Sign-extend n host-order int32 into n int64 (dst, src disjoint).
  void (*widen_i32_i64)(std::byte* dst, const std::byte* src, size_t n);
  /// Truncate n host-order int64 into n int32 (dst, src disjoint).
  void (*narrow_i64_i32)(std::byte* dst, const std::byte* src, size_t n);

  /// First index at which a and b differ, or n when the ranges are equal
  /// (LZ match extension, incremental page change detection).
  size_t (*mismatch)(const std::byte* a, const std::byte* b, size_t n);

  /// Strided gather: dst receives n contiguous 8-byte elements, element i
  /// read from the 8 bytes at src + i*stride (stride >= 8; dst and the
  /// source range must be disjoint). The AoS -> column gather of
  /// portable-image encode (32-byte Value stride).
  void (*gather64)(std::byte* dst, const std::byte* src, size_t stride, size_t n);
};

/// Table for one level, or nullptr when that level is not compiled into
/// this binary or not supported by this CPU. table(Isa::kScalar) never
/// returns nullptr.
const Ops* table(Isa isa);

/// Levels usable in this process (always contains kScalar).
std::vector<Isa> available();

/// The dispatched table: the highest available() level, selected once on
/// first use. Subsequent calls are one acquire load.
const Ops& ops();

/// The level ops() dispatched to (feeds the sim.simd.dispatch gauge).
Isa level();

/// Repoints the global table (tests/benches only; returns the previous
/// table so callers can restore it). Falls back to scalar when `isa` is
/// unavailable. Not safe to race against kernels running on other threads.
const Ops& force(Isa isa);

// --- convenience wrappers over the dispatched table ---

inline uint64_t fingerprint(const std::byte* p, size_t n) { return ops().fingerprint(p, n); }
inline void bswap32(std::byte* dst, const std::byte* src, size_t n) { ops().bswap32(dst, src, n); }
inline void bswap64(std::byte* dst, const std::byte* src, size_t n) { ops().bswap64(dst, src, n); }
inline void widen_i32_i64(std::byte* dst, const std::byte* src, size_t n) {
  ops().widen_i32_i64(dst, src, n);
}
inline void narrow_i64_i32(std::byte* dst, const std::byte* src, size_t n) {
  ops().narrow_i64_i32(dst, src, n);
}
inline size_t mismatch(const std::byte* a, const std::byte* b, size_t n) {
  return ops().mismatch(a, b, n);
}
inline void gather64(std::byte* dst, const std::byte* src, size_t stride, size_t n) {
  ops().gather64(dst, src, stride, n);
}

}  // namespace starfish::util::simd
