#include "mpi/datatype.hpp"

#include <cstring>

namespace starfish::mpi {

Datatype Datatype::contiguous(size_t count, size_t elem_bytes) {
  Datatype d;
  if (count > 0) d.blocks_.emplace_back(0, count * elem_bytes);
  d.packed_bytes_ = count * elem_bytes;
  d.extent_ = count * elem_bytes;
  d.build_plan();
  return d;
}

Datatype Datatype::vector(size_t count, size_t block_elems, size_t stride_elems,
                          size_t elem_bytes) {
  Datatype d;
  for (size_t i = 0; i < count; ++i) {
    d.blocks_.emplace_back(i * stride_elems * elem_bytes, block_elems * elem_bytes);
  }
  d.packed_bytes_ = count * block_elems * elem_bytes;
  d.extent_ = count == 0 ? 0
                         : (count - 1) * stride_elems * elem_bytes + block_elems * elem_bytes;
  d.build_plan();
  return d;
}

Datatype Datatype::indexed(std::vector<std::pair<size_t, size_t>> blocks) {
  Datatype d;
  d.blocks_ = std::move(blocks);
  for (const auto& [off, len] : d.blocks_) {
    d.packed_bytes_ += len;
    d.extent_ = std::max(d.extent_, off + len);
  }
  d.build_plan();
  return d;
}

void Datatype::build_plan() {
  size_t dst = 0;
  for (const auto& [off, len] : blocks_) {
    if (len == 0) continue;  // zero-length blocks contribute no bytes
    if (!plan_.empty() && plan_.back().src + plan_.back().len == off) {
      plan_.back().len += len;  // touches the previous run in the buffer too
    } else {
      plan_.push_back(Run{off, dst, len});
    }
    dst += len;
  }
}

util::Result<util::Bytes> Datatype::pack(std::span<const std::byte> buffer) const {
  if (buffer.size() < extent_) {
    return util::Error::make("pack", "buffer smaller than the datatype extent");
  }
  util::Bytes out(packed_bytes_);
  // Contiguous types (and vectors whose stride equals the block) compiled to
  // a single run, so this loop *is* the one-bulk-copy fast path for them;
  // strided layouts execute the merged gather plan, one memcpy per run.
  for (const Run& r : plan_) {
    std::memcpy(out.data() + r.dst, buffer.data() + r.src, r.len);
  }
  return out;
}

util::Status Datatype::unpack(std::span<const std::byte> message,
                              std::span<std::byte> buffer) const {
  if (message.size() != packed_bytes_) {
    return util::Error::make("unpack", "message size does not match the datatype");
  }
  if (buffer.size() < extent_) {
    return util::Error::make("unpack", "buffer smaller than the datatype extent");
  }
  for (const Run& r : plan_) {
    std::memcpy(buffer.data() + r.src, message.data() + r.dst, r.len);
  }
  return util::Status::ok_status();
}

// The typed codecs write the same little-endian wire bytes as the old
// per-element loops; the bulk Writer/Reader paths just retire whole arrays
// through one memcpy or SIMD byteswap pass. Decoders keep the legacy tolerant
// behavior on truncated input (missing elements read as zero).

util::Bytes encode_i64s(std::span<const int64_t> values) {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(values.size()));
  w.i64s(values);
  return out;
}

std::vector<int64_t> decode_i64s(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  const uint32_t n = r.u32().value_or(0);
  std::vector<int64_t> out;
  if (r.remaining() >= n * sizeof(int64_t)) {
    out.resize(n);
    (void)r.read_i64s(out);
  } else {
    for (uint32_t i = 0; i < n; ++i) out.push_back(r.i64().value_or(0));
  }
  return out;
}

util::Bytes encode_f64s(std::span<const double> values) {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(values.size()));
  w.f64s(values);
  return out;
}

std::vector<double> decode_f64s(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  const uint32_t n = r.u32().value_or(0);
  std::vector<double> out;
  if (r.remaining() >= n * sizeof(double)) {
    out.resize(n);
    (void)r.read_f64s(out);
  } else {
    for (uint32_t i = 0; i < n; ++i) out.push_back(r.f64().value_or(0.0));
  }
  return out;
}

util::Bytes encode_i32s(std::span<const int32_t> values) {
  util::Bytes out;
  util::Writer w(out);
  w.u32(static_cast<uint32_t>(values.size()));
  w.i32s(values);
  return out;
}

std::vector<int32_t> decode_i32s(const util::Bytes& bytes) {
  util::Reader r(util::as_bytes_view(bytes));
  const uint32_t n = r.u32().value_or(0);
  std::vector<int32_t> out;
  if (r.remaining() >= n * sizeof(int32_t)) {
    out.resize(n);
    (void)r.read_i32s(out);
  } else {
    for (uint32_t i = 0; i < n; ++i) out.push_back(r.i32().value_or(0));
  }
  return out;
}

}  // namespace starfish::mpi
