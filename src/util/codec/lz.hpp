// Deterministic LZ block codec for the checkpoint byte path.
//
// An LZ4-shaped format — token-coded literal runs and back-references —
// chosen over a real entropy coder because checkpoint payloads are
// dominated by runs and repeated structure, and because decode speed and
// *determinism* matter more than the last few percent of ratio: the same
// input must produce the same compressed bytes on every host and ISA level
// (checkpoint content hashes and replica transfers are compared across
// machines). The matcher is a fixed-parameter greedy hash-chain search with
// no heuristics keyed on timing, addresses or ISA; the match-extension
// compare and the block checksums route through the util/simd dispatch
// table, whose kernels are bit-identical across levels by contract, and
// literal and match copies are plain memcpy.
//
// Frame layout (all little-endian, independent blocks of 64 KB raw):
//   u32 magic "SLZ1"   u8 version   u64 raw_len   u32 n_blocks
//   per block: u8 kind (0 stored / 1 lz)   u32 block_raw_len
//              u32 enc_len   u64 check (fingerprint of the enc bytes)
//              enc bytes
// The per-block checksum makes verification cheap (one fingerprint pass,
// no decode) and localizes corruption; stored blocks keep incompressible
// input within a few dozen bytes of its raw size. Decode failures are
// typed Error{"codec", ...} — callers fall back, never abort.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::util::codec {

inline constexpr uint32_t kLzMagic = 0x315A4C53;  // "SLZ1" little-endian
inline constexpr uint8_t kLzVersion = 1;
inline constexpr size_t kLzBlockBytes = 64 * 1024;

/// Compresses raw into a framed stream. Deterministic: same input, same
/// output, on every host/ISA. Incompressible input degrades to stored
/// blocks (output ≈ raw + 21·ceil(n/64K) + 17 bytes), never fails.
Bytes lz_compress(BytesView raw);

/// The raw size a frame announces, without decoding (header peek).
Result<uint64_t> lz_raw_size(BytesView frame);

/// Structural + checksum validation without materializing the output:
/// header sanity, block bounds, per-block fingerprints. A frame that
/// verifies clean decodes clean (token-level corruption is covered by the
/// checksums, which hash the encoded bytes).
Status lz_verify(BytesView frame);

/// Decompresses a frame. `max_bytes` guards against forged headers
/// announcing absurd sizes. Any corruption or truncation yields a typed
/// Error{"codec", ...}.
Result<Bytes> lz_decompress(BytesView frame, uint64_t max_bytes);

}  // namespace starfish::util::codec
