// Incremental checkpointing (after libckpt [33], discussed in paper §6).
//
// Instead of writing the full state every epoch, an incremental image holds
// only the 4 KB pages that changed since the previous epoch, anchored by a
// periodic full image. Restores resolve the chain: full image + deltas in
// epoch order. Checkpoint garbage collection must keep everything back to
// the most recent full image (the CrModule handles that).
//
// Change detection is hash-based: the encoder keeps a per-page 64-bit
// fingerprint of the previous epoch's state (PageHashCache, owned by the
// CrModule and carried between epochs). With a warm cache an unchanged page
// costs one hash of the current page plus one integer compare — the
// previous state is never re-read, so its owner need not keep it — instead
// of the naive two full memcmp passes. The hash pass yields the dirty-page
// list, from which the delta's exact size is known before one byte of it is
// written: the C/R module writes the delta in place inside the image
// payload, one write per dirty byte (DESIGN.md, "Checkpoint data path").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::ckpt {

constexpr size_t kPageBytes = 4096;

/// Chain anchoring grid of incremental checkpointing (CrModule): every
/// kFullEvery-th epoch (1, 5, 9, ...) is self-contained, bounding
/// restore-chain length, and checkpoint gc of an incremental job keeps
/// everything back to the last full epoch.
constexpr uint64_t kFullEvery = 4;
constexpr bool is_full_epoch(uint64_t epoch) { return epoch % kFullEvery == 1; }
/// Latest full epoch <= `epoch` (epoch must be >= 1).
constexpr uint64_t last_full_at_or_before(uint64_t epoch) {
  return ((epoch - 1) / kFullEvery) * kFullEvery + 1;
}
/// On-disk metadata of an incremental image (page table, headers) — the
/// "base" cost replacing the full run-time dump.
constexpr uint64_t kIncrementalBaseBytes = 64ull * 1024;

/// Upper bound incremental_apply accepts for a delta's announced state size
/// unless the caller passes a tighter one: a corrupt or hostile delta must
/// not drive a multi-gigabyte allocation before any other validation runs.
constexpr uint64_t kMaxIncrementalStateBytes = 8ull * 1024 * 1024 * 1024;

/// 64-bit per-page fingerprint (the util/simd wide hash: eight XXH3-style
/// lanes, runtime-dispatched over scalar/AVX2/AVX-512 with bit-identical
/// outputs, so the cache is ISA-independent). Collisions
/// would silently drop a changed page, so the mixing must be strong; at
/// 64 bits the chance over any realistic checkpoint stream is negligible —
/// the same trade libckpt-style dirty-page hashing makes.
uint64_t page_fingerprint(util::BytesView page);

/// Per-page fingerprints of one epoch's state, carried between epochs by
/// the owner (CrModule). `valid` is false after a restore or protocol
/// change; the next encode then falls back to single-memcmp detection and
/// re-warms the cache in the same pass.
struct PageHashCache {
  std::vector<uint64_t> hashes;  ///< hashes[p] fingerprints page p
  uint64_t state_len = 0;        ///< length of the state the hashes describe
  bool valid = false;

  /// Recomputes the fingerprints so the cache describes `state`. Used after
  /// full epochs and restores, where no incremental_encode pass runs to warm
  /// the cache as a side effect.
  void rebuild(util::BytesView state);
};

/// Per-pass accounting of one dirty_pages call, for the obs layer: how
/// much work the scan did and how much of the state was dirty.
struct EncodeStats {
  uint64_t pages_scanned = 0;  ///< pages of `cur` examined
  uint64_t pages_hashed = 0;   ///< fingerprints computed (cache present)
  uint64_t pages_dirty = 0;    ///< changed pages emitted into the delta
};

/// The hash pass of a delta epoch: the indices, ascending, of the pages of
/// `cur` that differ from the previous state or lie beyond its end. A warm
/// `cache` must describe the previous state; unchanged pages are then found
/// by fingerprint compare and `prev` is not read at all, so it may be empty.
/// A cold or absent cache falls back to one memcmp per page against `prev`.
/// On return a non-null cache describes `cur`, warm for the next epoch.
std::vector<uint32_t> dirty_pages(util::BytesView prev, util::BytesView cur,
                                  PageHashCache* cache, EncodeStats* stats = nullptr);

/// Exact encoded size of the delta carrying the `dirty` pages of a state of
/// `cur_len` bytes, so a caller can size its output buffer once.
size_t delta_bytes(size_t cur_len, std::span<const uint32_t> dirty);

/// Appends the delta carrying the `dirty` pages of `cur` (as returned by
/// dirty_pages) — each dirty byte is written once, in place.
void write_delta(util::Writer& w, util::BytesView cur, std::span<const uint32_t> dirty);

/// By-value convenience over dirty_pages + write_delta: the delta from
/// `prev` to `cur` in one exactly-sized buffer. A `cache` that does not
/// describe `prev` is treated as cold. Optionally reports how many pages
/// changed and the pass accounting.
util::Bytes incremental_encode(const util::Bytes& prev, const util::Bytes& cur,
                               uint64_t* changed_pages = nullptr,
                               PageHashCache* cache = nullptr, EncodeStats* stats = nullptr);

/// Applies one delta to `state` in place, leaving the state it describes.
/// Rejects deltas whose announced size exceeds `max_state_bytes`, whose
/// page indices are duplicated or out of range, or whose page data does not
/// fit the announced state — a corrupt chain surfaces as a decode error,
/// never as a huge allocation or out-of-bounds write. The whole delta is
/// validated before `state` is touched, so on error it is unchanged.
util::Status incremental_apply_into(util::Bytes& state, util::BytesView delta,
                                    uint64_t max_state_bytes = kMaxIncrementalStateBytes);

/// By-value convenience over incremental_apply_into: `base` plus one delta.
util::Result<util::Bytes> incremental_apply(
    const util::Bytes& base, const util::Bytes& delta,
    uint64_t max_state_bytes = kMaxIncrementalStateBytes);

}  // namespace starfish::ckpt
