#include "mpi/frame.hpp"

namespace starfish::mpi {

namespace {
/// Fixed bytes of the wire header: kind(1) + comm/src/dst/tag(4 each) +
/// seq(8) + interval(4) + total(8) + payload length prefix(4).
constexpr size_t kHeaderBytes = 1 + 4 * 4 + 8 + 4 + 8 + 4;
}  // namespace

util::SharedBytes Frame::encode() const {
  // Sized exactly once: the payload's length-prefixed append then fits
  // without reallocating the buffer.
  util::Bytes out;
  util::Writer w(out);
  w.reserve(kHeaderBytes + payload.size());
  w.u8(static_cast<uint8_t>(kind));
  w.u32(comm);
  w.u32(src_rank);
  w.u32(dst_rank);
  w.i32(tag);
  w.u64(seq);
  w.u32(send_interval);
  w.u64(total_bytes);
  w.bytes(payload.view());
  return out;
}

util::Result<Frame> Frame::decode(const util::SharedBytes& bytes) {
  util::Reader r(bytes.view());
  Frame f;
  auto kind = r.u8();
  if (!kind) return kind.error();
  f.kind = static_cast<FrameKind>(kind.value());
  auto comm = r.u32();
  if (!comm) return comm.error();
  f.comm = comm.value();
  auto src = r.u32();
  if (!src) return src.error();
  f.src_rank = src.value();
  auto dst = r.u32();
  if (!dst) return dst.error();
  f.dst_rank = dst.value();
  auto tag = r.i32();
  if (!tag) return tag.error();
  f.tag = tag.value();
  auto seq = r.u64();
  if (!seq) return seq.error();
  f.seq = seq.value();
  auto interval = r.u32();
  if (!interval) return interval.error();
  f.send_interval = interval.value();
  auto total = r.u64();
  if (!total) return total.error();
  f.total_bytes = total.value();
  // The payload aliases the wire buffer instead of being copied out; the
  // length-prefixed view() advances the reader and bounds-checks for us.
  auto payload = r.view();
  if (!payload) return payload.error();
  f.payload = bytes.slice(r.position() - payload.value().size(), payload.value().size());
  return f;
}

}  // namespace starfish::mpi
