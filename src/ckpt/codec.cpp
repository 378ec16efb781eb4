#include "ckpt/codec.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "util/codec/lz.hpp"

namespace starfish::ckpt {

namespace {

using util::Bytes;
using util::BytesView;
using util::Error;
using util::Result;
using util::Status;

Error codec_error(const std::string& what) { return Error::make("codec", "payload: " + what); }

void note_encode(obs::Hub* hub, uint64_t raw_len, uint64_t enc_len) {
  if (hub == nullptr) return;
  hub->metrics.counter("ckpt.codec.raw_bytes").add(raw_len);
  hub->metrics.counter("ckpt.codec.encoded_bytes").add(enc_len);
  if (enc_len != 0) {
    // Compression ratio x100 (100 = pass-through, 300 = 3x smaller).
    hub->metrics
        .histogram("ckpt.codec.ratio_x100", obs::HistogramSpec::exponential(25, 2.0, 10))
        .record(raw_len * 100 / enc_len);
  }
}

Error note_decode_error(obs::Hub* hub, Error e) {
  if (hub != nullptr) hub->metrics.counter("ckpt.codec.decode_errors").add(1);
  return e;
}

}  // namespace

const char* compress_mode_name(CompressMode mode) {
  switch (mode) {
    case CompressMode::kOff: return "off";
    case CompressMode::kLz: return "lz";
  }
  return "off";
}

std::optional<CompressMode> parse_compress_mode(std::string_view text) {
  if (text == "off") return CompressMode::kOff;
  if (text == "lz") return CompressMode::kLz;
  return std::nullopt;
}

CompressMode compress_mode_from_env() {
  const char* v = std::getenv("STARFISH_CKPT_COMPRESS");
  if (v == nullptr) return CompressMode::kOff;
  if (auto mode = parse_compress_mode(v)) return *mode;
  // Every cluster reads the lever; say once per process that it is ignored.
  static bool warned = false;
  if (!warned) {
    warned = true;
    std::fprintf(stderr, "starfish: unknown STARFISH_CKPT_COMPRESS=%s (want off|lz), using off\n",
                 v);
  }
  return CompressMode::kOff;
}

EncodedPayload encode_payload(CompressMode mode, BytesView raw, obs::Hub* hub) {
  EncodedPayload result;
  if (mode == CompressMode::kLz) {
    Bytes candidate = util::codec::lz_compress(raw);
    if (candidate.size() < raw.size()) {
      result.bytes = std::move(candidate);
      result.codec = PayloadCodec::kLz;
    }
  }
  if (result.codec == PayloadCodec::kRaw) result.bytes.assign(raw.begin(), raw.end());
  if (mode != CompressMode::kOff) note_encode(hub, raw.size(), result.bytes.size());
  return result;
}

Result<Bytes> decode_payload(PayloadCodec codec, BytesView encoded, uint64_t max_bytes,
                             obs::Hub* hub) {
  switch (codec) {
    case PayloadCodec::kRaw:
      if (encoded.size() > max_bytes) {
        return note_decode_error(hub, codec_error("raw payload exceeds size bound"));
      }
      return Bytes(encoded.begin(), encoded.end());
    case PayloadCodec::kLz: {
      auto out = util::codec::lz_decompress(encoded, max_bytes);
      if (!out) return note_decode_error(hub, out.error());
      return std::move(out).take();
    }
  }
  return note_decode_error(hub, codec_error("unknown payload codec"));
}

Status verify_payload(PayloadCodec codec, BytesView encoded) {
  switch (codec) {
    case PayloadCodec::kRaw:
      return Status::ok_status();
    case PayloadCodec::kLz:
      return util::codec::lz_verify(encoded);
  }
  return codec_error("unknown payload codec");
}

}  // namespace starfish::ckpt
