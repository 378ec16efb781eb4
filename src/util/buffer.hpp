// Byte buffers with explicit-endianness encode/decode.
//
// All Starfish wire formats (control messages, checkpoint images, the
// management protocol's binary side) are built on Writer/Reader. Endianness
// is always explicit because heterogeneous checkpointing (section 4 of the
// paper) stores data in the *saving* machine's native representation and
// converts on restore.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"
#include "util/simd/simd.hpp"

namespace starfish::util {

enum class Endian : uint8_t { kLittle = 0, kBig = 1 };

/// Endianness of the machine this library was compiled for (the "physical"
/// host; simulated machines carry their own Representation).
constexpr Endian native_endian() {
  return std::endian::native == std::endian::little ? Endian::kLittle : Endian::kBig;
}

using Bytes = std::vector<std::byte>;

/// Non-owning read-only window into a byte buffer.
using BytesView = std::span<const std::byte>;

inline BytesView as_bytes_view(const Bytes& b) { return {b.data(), b.size()}; }

/// Immutable, cheaply-copyable, refcounted payload buffer.
///
/// The zero-copy data path hands one SharedBytes from the sender's frame
/// encoder through Packet, the VNI and the receive queues without ever
/// duplicating the body; `slice` lets a decoder alias a sub-range (e.g. the
/// payload inside a frame) of the same allocation. Immutability is what
/// makes the sharing safe: no layer may mutate a buffer another layer still
/// references, so simulation replay stays deterministic (see DESIGN.md
/// "Payload ownership").
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Adopts an owned buffer without copying. Intentionally implicit so call
  /// sites handing off an rvalue `Bytes` (encoder output, moved-from app
  /// data) keep reading naturally.
  SharedBytes(Bytes&& b)  // NOLINT(google-explicit-constructor)
      : owner_(std::make_shared<Bytes>(std::move(b))), len_(owner_->size()) {}

  /// Deep-copies a view into a fresh buffer (the only copying entry point).
  static SharedBytes copy(BytesView v) { return SharedBytes(Bytes(v.begin(), v.end())); }

  BytesView view() const {
    return owner_ ? BytesView{owner_->data() + offset_, len_} : BytesView{};
  }
  operator BytesView() const { return view(); }  // NOLINT(google-explicit-constructor)

  const std::byte* data() const { return owner_ ? owner_->data() + offset_ : nullptr; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::byte operator[](size_t i) const { return (*owner_)[offset_ + i]; }

  /// Zero-copy sub-range sharing (and keeping alive) the same allocation.
  /// Clamped to the buffer bounds.
  SharedBytes slice(size_t off, size_t n) const {
    SharedBytes s;
    if (off > len_) off = len_;
    if (n > len_ - off) n = len_ - off;
    s.owner_ = owner_;
    s.offset_ = offset_ + off;
    s.len_ = n;
    return s;
  }

  /// Materializes an owned mutable copy. The rvalue overload steals the
  /// underlying vector when this handle is the sole owner of the whole
  /// buffer (the common case at final delivery of an unsliced payload).
  Bytes to_bytes() const& {
    auto v = view();
    return Bytes(v.begin(), v.end());
  }
  Bytes to_bytes() && {
    if (owner_ && owner_.use_count() == 1 && offset_ == 0 && len_ == owner_->size()) {
      Bytes out = std::move(*owner_);
      owner_.reset();
      len_ = 0;
      return out;
    }
    auto v = view();
    return Bytes(v.begin(), v.end());
  }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    auto va = a.view(), vb = b.view();
    return va.size() == vb.size() &&
           (va.empty() || std::memcmp(va.data(), vb.data(), va.size()) == 0);
  }

 private:
  /// Held non-const for the unique-owner move-out in to_bytes()&&; no
  /// mutating access is ever exposed.
  std::shared_ptr<Bytes> owner_;
  size_t offset_ = 0;
  size_t len_ = 0;
};

inline BytesView as_bytes_view(const SharedBytes& b) { return b.view(); }

/// Appends fixed-width integers/floats/strings to a byte vector in a chosen
/// endianness. Cheap value type; owns nothing but a reference to the target.
class Writer {
 public:
  explicit Writer(Bytes& out, Endian endian = Endian::kLittle) : out_(out), endian_(endian) {}

  Endian endian() const { return endian_; }
  size_t size() const { return out_.size(); }

  /// Pre-sizes the target for `n` further bytes of appends. Encoders that
  /// know their message size up front should call this once instead of
  /// letting the vector grow geometrically under per-field appends.
  void reserve(size_t n) { out_.reserve(out_.size() + n); }

  void u8(uint8_t v) { out_.push_back(std::byte{v}); }
  void u16(uint16_t v) { put_int(v); }
  void u32(uint32_t v) { put_int(v); }
  void u64(uint64_t v) { put_int(v); }
  void i32(int32_t v) { put_int(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { put_int(static_cast<uint64_t>(v)); }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_int(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::byte> data) {
    reserve(sizeof(uint32_t) + data.size());
    u32(static_cast<uint32_t>(data.size()));
    raw(data);
  }
  void str(std::string_view s) {
    bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
  /// Raw append without a length prefix. Copies straight into spare
  /// capacity: no zero-fill of the tail before the copy overwrites it.
  void raw(std::span<const std::byte> data) { out_.insert(out_.end(), data.begin(), data.end()); }

  // --- bulk appends (SIMD byteswap/convert; one resize, no per-element
  // shifting loop). Wire layout is identical to calling the per-element
  // append in a loop — these exist because the portable-image codec and the
  // typed array codecs write thousands of homogeneous words at a time. ---

  void u32s(std::span<const uint32_t> v) { put_ints<uint32_t, 4>(v.data(), v.size()); }
  void i32s(std::span<const int32_t> v) { put_ints<int32_t, 4>(v.data(), v.size()); }
  void u64s(std::span<const uint64_t> v) { put_ints<uint64_t, 8>(v.data(), v.size()); }
  void i64s(std::span<const int64_t> v) { put_ints<int64_t, 8>(v.data(), v.size()); }
  /// IEEE bit patterns as 64-bit words (same bytes as f64() per element).
  void f64s(std::span<const double> v) { put_ints<double, 8>(v.data(), v.size()); }
  /// Truncates each int64 to int32 and appends the 32-bit words (the
  /// word-size conversion of heterogeneous checkpointing, in bulk).
  void i32s_narrowed(std::span<const int64_t> v) {
    if (v.empty()) return;
    const size_t at = grow(v.size() * 4);
    std::byte* dst = out_.data() + at;
    simd::narrow_i64_i32(dst, reinterpret_cast<const std::byte*>(v.data()), v.size());
    if (endian_ != native_endian()) simd::bswap32(dst, dst, v.size());
  }

 private:
  /// Appends n elements of kElem bytes each, byte-swapping when the target
  /// endianness differs from the host's.
  template <typename T, unsigned kElem>
  void put_ints(const T* src, size_t n) {
    static_assert(sizeof(T) == kElem);
    if (n == 0) return;
    const size_t at = grow(n * kElem);
    std::byte* dst = out_.data() + at;
    const std::byte* s = reinterpret_cast<const std::byte*>(src);
    if (endian_ == native_endian()) {
      std::memcpy(dst, s, n * kElem);
    } else if constexpr (kElem == 4) {
      simd::bswap32(dst, s, n);
    } else {
      simd::bswap64(dst, s, n);
    }
  }

  size_t grow(size_t n) {
    const size_t at = out_.size();
    out_.resize(at + n);
    return at;
  }

  template <typename U>
  void put_int(U v) {
    // One resize + direct stores (no per-integer insert churn); the
    // little-endian/native case collapses to a plain memcpy.
    const size_t at = out_.size();
    out_.resize(at + sizeof(U));
    std::byte* dst = out_.data() + at;
    if (endian_ == native_endian()) {
      std::memcpy(dst, &v, sizeof(U));
      return;
    }
    for (size_t i = 0; i < sizeof(U); ++i) {
      const unsigned shift =
          endian_ == Endian::kLittle ? 8 * i : 8 * (sizeof(U) - 1 - i);
      dst[i] = static_cast<std::byte>((v >> shift) & 0xff);
    }
  }

  Bytes& out_;
  Endian endian_;
};

/// Bounds-checked decoder over a byte span. Decode failures surface as
/// Error{"decode", ...} results rather than UB.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data, Endian endian = Endian::kLittle)
      : data_(data), endian_(endian) {}

  Endian endian() const { return endian_; }
  void set_endian(Endian e) { endian_ = e; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  Result<uint8_t> u8() {
    if (remaining() < 1) return short_read("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint16_t> u16() { return get_int<uint16_t>("u16"); }
  Result<uint32_t> u32() { return get_int<uint32_t>("u32"); }
  Result<uint64_t> u64() { return get_int<uint64_t>("u64"); }
  Result<int32_t> i32() {
    auto r = get_int<uint32_t>("i32");
    if (!r) return r.error();
    return static_cast<int32_t>(r.value());
  }
  Result<int64_t> i64() {
    auto r = get_int<uint64_t>("i64");
    if (!r) return r.error();
    return static_cast<int64_t>(r.value());
  }
  Result<double> f64() {
    auto r = get_int<uint64_t>("f64");
    if (!r) return r.error();
    double v;
    uint64_t bits = r.value();
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  Result<bool> boolean() {
    auto r = u8();
    if (!r) return r.error();
    return r.value() != 0;
  }

  Result<Bytes> bytes() {
    auto v = view();
    if (!v) return v.error();
    return Bytes(v.value().begin(), v.value().end());
  }
  /// Zero-copy variant of bytes(): a length-prefixed window into the source
  /// span. Valid only while the underlying buffer is alive and unmodified.
  Result<BytesView> view() {
    auto len = u32();
    if (!len) return len.error();
    if (remaining() < len.value()) return short_read("bytes");
    BytesView out = data_.subspan(pos_, len.value());
    pos_ += len.value();
    return out;
  }
  Result<std::string> str() {
    auto v = str_view();
    if (!v) return v.error();
    return std::string(v.value());
  }
  /// Zero-copy variant of str(); same lifetime caveat as view().
  Result<std::string_view> str_view() {
    auto v = view();
    if (!v) return v.error();
    return std::string_view(reinterpret_cast<const char*>(v.value().data()), v.value().size());
  }
  /// Reads exactly n raw bytes (no length prefix).
  Result<Bytes> raw(size_t n) {
    auto v = raw_view(n);
    if (!v) return v.error();
    return Bytes(v.value().begin(), v.value().end());
  }
  /// Zero-copy variant of raw(); same lifetime caveat as view().
  Result<BytesView> raw_view(size_t n) {
    if (remaining() < n) return short_read("raw");
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  // --- bulk reads (inverse of the Writer bulk appends; bounds-checked as a
  // whole, then one SIMD byteswap/convert pass into the caller's array) ---

  Status read_u32s(std::span<uint32_t> out) { return get_ints<uint32_t, 4>(out, "u32s"); }
  Status read_i32s(std::span<int32_t> out) { return get_ints<int32_t, 4>(out, "i32s"); }
  Status read_u64s(std::span<uint64_t> out) { return get_ints<uint64_t, 8>(out, "u64s"); }
  Status read_i64s(std::span<int64_t> out) { return get_ints<int64_t, 8>(out, "i64s"); }
  Status read_f64s(std::span<double> out) { return get_ints<double, 8>(out, "f64s"); }
  /// Reads out.size() 32-bit words and sign-extends each into an int64 (the
  /// widening restore of a 32-bit saver's image on a 64-bit reader).
  Status read_i64s_widened(std::span<int64_t> out) {
    const size_t n = out.size();
    if (remaining() < n * 4) return short_read("i32s");
    const std::byte* src = data_.data() + pos_;
    std::byte* dst = reinterpret_cast<std::byte*>(out.data());
    if (endian_ == native_endian()) {
      simd::widen_i32_i64(dst, src, n);
    } else {
      // Swap into native int32 order first (chunked through a small stack
      // buffer so the pass stays allocation-free), then sign-extend.
      constexpr size_t kChunk = 512;
      alignas(16) std::byte tmp[kChunk * 4];
      for (size_t i = 0; i < n; i += kChunk) {
        const size_t c = n - i < kChunk ? n - i : kChunk;
        simd::bswap32(tmp, src + 4 * i, c);
        simd::widen_i32_i64(dst + 8 * i, tmp, c);
      }
    }
    pos_ += n * 4;
    return Status::ok_status();
  }

 private:
  template <typename T, unsigned kElem>
  Status get_ints(std::span<T> out, const char* what) {
    static_assert(sizeof(T) == kElem);
    const size_t n = out.size();
    if (remaining() < n * kElem) return short_read(what);
    if (n != 0) {
      const std::byte* src = data_.data() + pos_;
      std::byte* dst = reinterpret_cast<std::byte*>(out.data());
      if (endian_ == native_endian()) {
        std::memcpy(dst, src, n * kElem);
      } else if constexpr (kElem == 4) {
        simd::bswap32(dst, src, n);
      } else {
        simd::bswap64(dst, src, n);
      }
    }
    pos_ += n * kElem;
    return Status::ok_status();
  }

  template <typename U>
  Result<U> get_int(const char* what) {
    if (remaining() < sizeof(U)) return short_read(what);
    U v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      const unsigned shift =
          endian_ == Endian::kLittle ? 8 * i : 8 * (sizeof(U) - 1 - i);
      v |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << shift);
    }
    pos_ += sizeof(U);
    return v;
  }

  Error short_read(const char* what) const {
    return Error::make("decode", std::string("short read decoding ") + what);
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  Endian endian_;
};

}  // namespace starfish::util
