// Checkpoint images: native (homogeneous) and portable (heterogeneous).
//
// Native images model the paper's process-level checkpoint (dump the process
// core): an opaque byte snapshot tagged with the saving machine's
// representation, restorable *only* under an identical representation, and
// carrying the full run-time image — hence the 632 KB empty-program file of
// Figure 3.
//
// Portable images are the VM-level heterogeneous checkpoint of section 4 and
// [2]: the VM state is written in the saving machine's *native*
// representation (no conversion cost on the save path) together with a
// concise representation descriptor; the restore path converts endianness
// and word length to the target machine. An empty program costs only 260 KB
// (Figure 4) because the VM run-time itself is not part of the image.
//
// Since PR 9 the portable payload is columnar ("SFV2"): each value sequence
// stores a tag byte per value followed by the integer words, floats, bools
// and refs as contiguous homogeneous arrays, so both conversion directions
// run through the util/simd bulk kernels (byteswap, widen/narrow) and the
// payload bytes are identical at every dispatched ISA level.
//
// Images are defined over VmState in ORIGINAL bytecode coordinates. The
// interpreter's execution engine (vm/exec.hpp) never leaks its prepared or
// fused representation into frames, pcs or step counts, so the bytes
// portable_encode produces are identical across fast/checked/fused
// dispatch configurations — the differential tests pin this.
#pragma once

#include <cstdint>
#include <span>

#include "ckpt/codec.hpp"
#include "sim/machine.hpp"
#include "util/buffer.hpp"
#include "util/result.hpp"
#include "vm/value.hpp"

namespace starfish::ckpt {

enum class ImageKind : uint8_t { kNative = 0, kPortable = 1 };

/// Paper anchors for the run-time image included in each kind of checkpoint
/// file (the smallest data points of Figures 3 and 4).
constexpr uint64_t kNativeBaseBytes = 632ull * 1024;    ///< process + VM image
constexpr uint64_t kPortableBaseBytes = 260ull * 1024;  ///< VM-independent base

struct Image {
  ImageKind kind = ImageKind::kPortable;
  uint16_t repr_code = 0;  ///< representation descriptor of the saving machine
  util::Bytes payload;
  /// Simulated on-disk file size: payload plus the run-time image the real
  /// system would have dumped (not materialized in memory here).
  uint64_t file_bytes = 0;
  /// Incremental checkpointing (ckpt/incremental.hpp): this image's
  /// app-state is a page delta against `base_epoch`'s image.
  bool incremental = false;
  uint64_t base_epoch = 0;
  /// Payload compression (ckpt/codec.hpp): how `payload` is coded as
  /// stored/shipped. The storage layer codes on put and decodes on get, so
  /// everything above the store only ever sees kRaw images.
  PayloadCodec codec = PayloadCodec::kRaw;
};

// ----- native (homogeneous) path -----

/// Snapshots opaque process memory. O(size) copy, no conversion.
Image native_encode(const sim::Machine& saver, std::span<const std::byte> memory);
/// Fails with repr-mismatch unless `target` has the saving machine's exact
/// representation — the homogeneous restriction of section 4.
util::Result<util::Bytes> native_decode(const Image& image, const sim::Machine& target);

// ----- portable (heterogeneous, VM-level) path -----

/// Serializes VM state in `saver`'s native representation: saver-endian
/// fields, integers in saver-word-sized slots.
Image portable_encode(const sim::Machine& saver, const vm::VmState& state);
/// Reconstructs the state under `target`'s representation, converting
/// endianness and widening/narrowing integer slots. Narrowing a value that
/// does not fit the target word is a checked error.
util::Result<vm::VmState> portable_decode(const Image& image, const sim::Machine& target);

/// Representation descriptor helpers (inverse of Machine::repr_code).
util::Endian repr_endian(uint16_t code);
uint8_t repr_word_bytes(uint16_t code);

}  // namespace starfish::ckpt
