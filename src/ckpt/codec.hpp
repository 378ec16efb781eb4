// Checkpoint payload compression.
//
// Between the image encoders (image.hpp, incremental.hpp) and the storage
// backends (store.hpp, replica.hpp) sits an optional payload codec that
// shrinks what an epoch actually writes to disk or ships to replica
// holders: the deterministic block codec of util/codec/lz.hpp, applied to
// the payload bytes. It wins on run- and structure-heavy container bytes
// and on the zero-heavy app state of sparse jobs.
//
// Cross-epoch page deltas are not the codec's job: incremental images
// (incremental.hpp, JobSpec::incremental_ckpt) are the one chained page
// delta, and the codec compresses their payloads like any other.
//
// The mode is a CheckpointStore-level setting (STARFISH_CKPT_COMPRESS env
// or ClusterOptions), default off; encode falls back to raw whenever a
// coded payload would not beat the raw bytes, so enabling lz never
// inflates an epoch. Every decode failure is a typed Error{"codec", ...}:
// callers fall back to the next recoverable epoch, never abort.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/buffer.hpp"
#include "util/result.hpp"

namespace starfish::obs {
struct Hub;
}

namespace starfish::ckpt {

/// Store-level compression policy (what encode_payload tries).
enum class CompressMode : uint8_t { kOff = 0, kLz = 1 };

/// How one stored payload is actually coded (what decode_payload needs).
/// A mode is a policy; a codec is a fact about one image's bytes — under
/// kLz an image degrades to kRaw when coding would not pay.
enum class PayloadCodec : uint8_t { kRaw = 0, kLz = 1 };

const char* compress_mode_name(CompressMode mode);
/// Parses "off" | "lz".
std::optional<CompressMode> parse_compress_mode(std::string_view text);
/// STARFISH_CKPT_COMPRESS, default kOff; an unparseable value means kOff
/// and prints one line to stderr (once per process).
CompressMode compress_mode_from_env();

/// Result of one encode_payload call.
struct EncodedPayload {
  util::Bytes bytes;                        ///< the stored/shipped bytes
  PayloadCodec codec = PayloadCodec::kRaw;  ///< how `bytes` is coded
};

/// Encodes `raw` under `mode`. Falls back to PayloadCodec::kRaw whenever
/// the coded bytes would not be smaller than the raw bytes, so the result
/// never inflates. Deterministic for fixed inputs on every host/ISA.
/// `hub` (nullable) receives ckpt.codec.* counters and the ratio histogram.
EncodedPayload encode_payload(CompressMode mode, util::BytesView raw, obs::Hub* hub);

/// Reconstructs the raw payload. `max_bytes` bounds the announced raw size
/// against forged headers. Corruption or truncation yields
/// Error{"codec", ...} (and bumps ckpt.codec.decode_errors when `hub` is
/// set) — never an abort.
util::Result<util::Bytes> decode_payload(PayloadCodec codec, util::BytesView encoded,
                                         uint64_t max_bytes, obs::Hub* hub);

/// Structural + checksum validation without reconstructing the payload. A
/// frame that verifies clean decodes clean.
util::Status verify_payload(PayloadCodec codec, util::BytesView encoded);

}  // namespace starfish::ckpt
