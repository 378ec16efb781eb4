#include "util/codec/lz.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "util/simd/simd.hpp"

namespace starfish::util::codec {

namespace {

// Token byte: high nibble = literal run length (15 = extended), low nibble
// = match length code (0 = no match; 1..14 = match of code+3 bytes; 15 =
// 18 + extension bytes). Extensions are runs of 0xff plus a final <255
// byte, LZ4-style. A match is followed by its u16 little-endian in-block
// offset. Matches never cross a block boundary, so blocks decode (and
// corrupt) independently.
constexpr size_t kMinMatch = 4;
constexpr size_t kShortMatchMax = 17;  // low nibble 14 -> 3 + 14
constexpr int kHashBits = 14;
constexpr int kChainCap = 16;
constexpr size_t kBlockHeaderBytes = 1 + 4 + 4 + 8;
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;

uint32_t load_le32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

uint32_t hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

void put_ext(Bytes& out, size_t v) {
  while (v >= 255) {
    out.push_back(std::byte{0xff});
    v -= 255;
  }
  out.push_back(static_cast<std::byte>(v));
}

Error codec_error(const std::string& what) { return Error::make("codec", "lz: " + what); }

/// Token-compresses one block. Returns false (and an undefined `out`
/// prefix beyond `out_start`) when the tokens would not beat the raw
/// block, in which case the caller emits a stored block instead.
bool compress_block(const std::byte* p, size_t n, Bytes& out, size_t out_start,
                    std::vector<int32_t>& head, std::vector<int32_t>& prev) {
  const simd::Ops& simd = simd::ops();
  std::fill(head.begin(), head.end(), -1);
  prev.assign(n, -1);
  size_t pos = 0;
  size_t lit_start = 0;

  auto emit_seq = [&](size_t lit_len, size_t match_len, size_t offset) {
    const size_t lit_code = lit_len < 15 ? lit_len : 15;
    size_t match_code = 0;
    if (match_len != 0) {
      match_code = match_len - 3 < 15 ? match_len - 3 : 15;
    }
    out.push_back(static_cast<std::byte>((lit_code << 4) | match_code));
    if (lit_code == 15) put_ext(out, lit_len - 15);
    if (lit_len != 0) {
      const size_t at = out.size();
      out.resize(at + lit_len);
      std::memcpy(out.data() + at, p + lit_start, lit_len);
    }
    if (match_len != 0) {
      out.push_back(static_cast<std::byte>(offset & 0xff));
      out.push_back(static_cast<std::byte>((offset >> 8) & 0xff));
      if (match_code == 15) put_ext(out, match_len - (kShortMatchMax + 1));
    }
  };

  while (pos + kMinMatch <= n) {
    const uint32_t here = load_le32(p + pos);
    const uint32_t h = hash4(here);
    size_t best_len = 0;
    size_t best_off = 0;
    const size_t max_len = n - pos;
    int32_t cand = head[h];
    for (int depth = 0; cand >= 0 && depth < kChainCap; ++depth, cand = prev[cand]) {
      if (load_le32(p + static_cast<size_t>(cand)) != here) continue;
      // Self-referential overlap (cand + i >= pos) is fine: the decoder
      // replicates the pattern byte-by-byte, exactly what the forward
      // comparison below proves equal.
      const size_t len =
          4 + simd.mismatch(p + static_cast<size_t>(cand) + 4, p + pos + 4, max_len - 4);
      if (len > best_len) {
        best_len = len;
        best_off = pos - static_cast<size_t>(cand);
      }
    }
    if (best_len >= kMinMatch) {
      emit_seq(pos - lit_start, best_len, best_off);
      const size_t end = pos + best_len;
      for (size_t q = pos; q < end && q + kMinMatch <= n; ++q) {
        const uint32_t hq = hash4(load_le32(p + q));
        prev[q] = head[hq];
        head[hq] = static_cast<int32_t>(q);
      }
      pos = end;
      lit_start = pos;
      if (out.size() - out_start >= n) return false;  // not profitable, bail early
    } else {
      prev[pos] = head[h];
      head[h] = static_cast<int32_t>(pos);
      ++pos;
    }
  }
  if (lit_start < n) emit_seq(n - lit_start, 0, 0);
  return out.size() - out_start < n;
}

struct BlockRef {
  uint8_t kind;
  uint32_t raw_len;
  BytesView enc;
};

/// Parses and checksum-verifies the frame scaffolding shared by verify and
/// decompress. On success `blocks` holds one entry per block and the
/// announced raw length is returned.
Result<uint64_t> parse_frame(BytesView frame, std::vector<BlockRef>& blocks) {
  Reader r(frame);
  auto magic = r.u32();
  if (!magic || magic.value() != kLzMagic) return codec_error("bad magic");
  auto version = r.u8();
  if (!version || version.value() != kLzVersion) return codec_error("unsupported version");
  auto raw_len = r.u64();
  if (!raw_len) return codec_error("truncated header");
  auto n_blocks = r.u32();
  if (!n_blocks) return codec_error("truncated header");
  const uint64_t want_blocks =
      raw_len.value() == 0 ? 0 : (raw_len.value() + kLzBlockBytes - 1) / kLzBlockBytes;
  if (n_blocks.value() != want_blocks) return codec_error("block count mismatch");
  blocks.clear();
  blocks.reserve(n_blocks.value());
  uint64_t raw_total = 0;
  for (uint32_t b = 0; b < n_blocks.value(); ++b) {
    auto kind = r.u8();
    auto block_raw = r.u32();
    auto enc_len = r.u32();
    auto check = r.u64();
    if (!kind || !block_raw || !enc_len || !check) return codec_error("truncated block header");
    if (kind.value() > 1) return codec_error("unknown block kind");
    if (block_raw.value() == 0 || block_raw.value() > kLzBlockBytes) {
      return codec_error("bad block raw length");
    }
    auto enc = r.raw_view(enc_len.value());
    if (!enc) return codec_error("truncated block body");
    if (kind.value() == 0 && enc.value().size() != block_raw.value()) {
      return codec_error("stored block length mismatch");
    }
    if (simd::fingerprint(enc.value().data(), enc.value().size()) != check.value()) {
      return codec_error("block checksum mismatch");
    }
    raw_total += block_raw.value();
    blocks.push_back({kind.value(), block_raw.value(), enc.value()});
  }
  if (!r.exhausted()) return codec_error("trailing bytes after frame");
  if (raw_total != raw_len.value()) return codec_error("block raw lengths disagree with header");
  return raw_len.value();
}

Status decode_block(const BlockRef& blk, std::byte* dst) {
  const std::byte* in = blk.enc.data();
  const size_t in_len = blk.enc.size();
  const size_t out_len = blk.raw_len;
  size_t ip = 0;
  size_t op = 0;
  auto read_ext = [&](size_t& v) -> bool {
    for (;;) {
      if (ip >= in_len) return false;
      const auto b = static_cast<uint8_t>(in[ip++]);
      v += b;
      if (b != 0xff) return true;
    }
  };
  while (op < out_len) {
    if (ip >= in_len) return codec_error("token stream exhausted");
    const auto token = static_cast<uint8_t>(in[ip++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_ext(lit_len)) return codec_error("truncated literal length");
    if (lit_len > in_len - ip || lit_len > out_len - op) {
      return codec_error("literal run out of bounds");
    }
    std::memcpy(dst + op, in + ip, lit_len);
    ip += lit_len;
    op += lit_len;
    const size_t match_code = token & 0x0f;
    if (match_code == 0) continue;
    if (in_len - ip < 2) return codec_error("truncated match offset");
    const size_t off =
        static_cast<size_t>(static_cast<uint8_t>(in[ip])) |
        (static_cast<size_t>(static_cast<uint8_t>(in[ip + 1])) << 8);
    ip += 2;
    size_t match_len = match_code < 15 ? match_code + 3 : kShortMatchMax + 1;
    if (match_code == 15 && !read_ext(match_len)) return codec_error("truncated match length");
    if (off == 0 || off > op) return codec_error("match offset out of bounds");
    if (match_len > out_len - op) return codec_error("match run out of bounds");
    const std::byte* src = dst + op - off;
    if (off >= match_len) {
      std::memcpy(dst + op, src, match_len);
    } else {
      for (size_t i = 0; i < match_len; ++i) dst[op + i] = src[i];  // overlapping replicate
    }
    op += match_len;
  }
  if (ip != in_len) return codec_error("trailing bytes in block");
  return Status::ok_status();
}

}  // namespace

Bytes lz_compress(BytesView raw) {
  Bytes out;
  Writer w(out);
  w.reserve(kFrameHeaderBytes + raw.size() / 4 + 64);
  w.u32(kLzMagic);
  w.u8(kLzVersion);
  w.u64(raw.size());
  const uint64_t n_blocks = raw.empty() ? 0 : (raw.size() + kLzBlockBytes - 1) / kLzBlockBytes;
  w.u32(static_cast<uint32_t>(n_blocks));

  std::vector<int32_t> head(size_t{1} << kHashBits);
  std::vector<int32_t> prev;
  Bytes tokens;
  for (uint64_t b = 0; b < n_blocks; ++b) {
    const size_t off = static_cast<size_t>(b) * kLzBlockBytes;
    const size_t len = std::min(kLzBlockBytes, raw.size() - off);
    tokens.clear();
    const bool lz = compress_block(raw.data() + off, len, tokens, 0, head, prev);
    const BytesView enc = lz ? as_bytes_view(tokens) : raw.subspan(off, len);
    w.u8(lz ? 1 : 0);
    w.u32(static_cast<uint32_t>(len));
    w.u32(static_cast<uint32_t>(enc.size()));
    w.u64(simd::fingerprint(enc.data(), enc.size()));
    w.raw(enc);
  }
  return out;
}

Result<uint64_t> lz_raw_size(BytesView frame) {
  Reader r(frame);
  auto magic = r.u32();
  if (!magic || magic.value() != kLzMagic) return codec_error("bad magic");
  auto version = r.u8();
  if (!version || version.value() != kLzVersion) return codec_error("unsupported version");
  auto raw_len = r.u64();
  if (!raw_len) return codec_error("truncated header");
  return raw_len.value();
}

Status lz_verify(BytesView frame) {
  std::vector<BlockRef> blocks;
  auto parsed = parse_frame(frame, blocks);
  if (!parsed) return parsed.error();
  return Status::ok_status();
}

Result<Bytes> lz_decompress(BytesView frame, uint64_t max_bytes) {
  std::vector<BlockRef> blocks;
  auto parsed = parse_frame(frame, blocks);
  if (!parsed) return parsed.error();
  if (parsed.value() > max_bytes) {
    return codec_error("frame announces oversized payload (" + std::to_string(parsed.value()) +
                       " > " + std::to_string(max_bytes) + " bytes)");
  }
  Bytes out(static_cast<size_t>(parsed.value()));
  size_t off = 0;
  for (const BlockRef& blk : blocks) {
    if (blk.kind == 0) {
      std::memcpy(out.data() + off, blk.enc.data(), blk.enc.size());
    } else {
      auto st = decode_block(blk, out.data() + off);
      if (!st.ok()) return st.error();
    }
    off += blk.raw_len;
  }
  return out;
}

}  // namespace starfish::util::codec
