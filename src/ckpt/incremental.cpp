#include "ckpt/incremental.hpp"

#include <algorithm>
#include <cstring>

#include "util/simd/simd.hpp"

namespace starfish::ckpt {

// Delta layout (little-endian): u64 new_total_len; u32 n_pages;
// n_pages x { u32 page_index; bytes page_data }.

namespace {

size_t page_count(size_t len) { return (len + kPageBytes - 1) / kPageBytes; }

}  // namespace

// The fingerprint kernel itself lives in util/simd (one ISA-dispatched
// implementation tree, bit-identical across levels — see DESIGN.md §16).
// The pre-PR9 hand-rolled AVX2 kernel and its per-call-site
// __builtin_cpu_supports gate are gone; dispatch happens once, centrally.
uint64_t page_fingerprint(util::BytesView page) {
  return util::simd::fingerprint(page.data(), page.size());
}

void PageHashCache::rebuild(util::BytesView state) {
  const size_t n_pages = page_count(state.size());
  hashes.resize(n_pages);
  for (size_t p = 0; p < n_pages; ++p) {
    const size_t off = p * kPageBytes;
    const size_t len = std::min(kPageBytes, state.size() - off);
    hashes[p] = page_fingerprint(state.subspan(off, len));
  }
  state_len = state.size();
  valid = true;
}

std::vector<uint32_t> dirty_pages(util::BytesView prev, util::BytesView cur,
                                  PageHashCache* cache, EncodeStats* stats) {
  const size_t n_pages = page_count(cur.size());
  // A warm cache describes the previous state (its length included), so
  // `prev` is not needed; otherwise fall back to one memcmp per page while
  // the pass re-warms the cache for `cur`.
  const bool warm = cache != nullptr && cache->valid &&
                    cache->hashes.size() == page_count(cache->state_len);
  const size_t prev_len = warm ? cache->state_len : prev.size();
  std::vector<uint64_t> next_hashes;
  if (cache != nullptr) next_hashes.resize(n_pages);

  std::vector<uint32_t> dirty;
  // One dispatch lookup for the whole pass (not one atomic load + double
  // indirection per page — this loop runs once per 4 KB).
  const util::simd::Ops& simd = util::simd::ops();
  for (size_t p = 0; p < n_pages; ++p) {
    const size_t off = p * kPageBytes;
    const size_t len = std::min(kPageBytes, cur.size() - off);
    uint64_t fp = 0;
    if (cache != nullptr) {
      fp = simd.fingerprint(cur.data() + off, len);
      next_hashes[p] = fp;
    }
    bool differs;
    if (off >= prev_len || std::min(kPageBytes, prev_len - off) != len) {
      differs = true;  // page is new or the tail length changed
    } else if (warm) {
      differs = cache->hashes[p] != fp;  // prev is not read at all
    } else {
      differs = simd.mismatch(prev.data() + off, cur.data() + off, len) != len;
    }
    if (differs) dirty.push_back(static_cast<uint32_t>(p));
  }
  if (cache != nullptr) {
    cache->hashes = std::move(next_hashes);
    cache->state_len = cur.size();
    cache->valid = true;
  }
  if (stats != nullptr) {
    stats->pages_scanned += n_pages;
    if (cache != nullptr) stats->pages_hashed += n_pages;
    stats->pages_dirty += dirty.size();
  }
  return dirty;
}

size_t delta_bytes(size_t cur_len, std::span<const uint32_t> dirty) {
  size_t n = sizeof(uint64_t) + sizeof(uint32_t);
  for (uint32_t p : dirty) {
    n += 2 * sizeof(uint32_t) + std::min(kPageBytes, cur_len - size_t{p} * kPageBytes);
  }
  return n;
}

void write_delta(util::Writer& w, util::BytesView cur, std::span<const uint32_t> dirty) {
  w.u64(cur.size());
  w.u32(static_cast<uint32_t>(dirty.size()));
  for (uint32_t p : dirty) {
    const size_t off = size_t{p} * kPageBytes;
    w.u32(p);
    w.bytes(cur.subspan(off, std::min(kPageBytes, cur.size() - off)));
  }
}

util::Bytes incremental_encode(const util::Bytes& prev, const util::Bytes& cur,
                               uint64_t* changed_pages, PageHashCache* cache,
                               EncodeStats* stats) {
  // The cache is warm only if it fingerprints exactly the `prev` we are
  // diffing against (restore, first epoch or size drift make it cold).
  if (cache != nullptr && cache->state_len != prev.size()) cache->valid = false;
  const std::vector<uint32_t> dirty =
      dirty_pages(util::as_bytes_view(prev), util::as_bytes_view(cur), cache, stats);
  util::Bytes out;
  out.reserve(delta_bytes(cur.size(), dirty));
  util::Writer w(out);
  write_delta(w, util::as_bytes_view(cur), dirty);
  if (changed_pages != nullptr) *changed_pages = dirty.size();
  return out;
}

util::Status incremental_apply_into(util::Bytes& state, util::BytesView delta,
                                    uint64_t max_state_bytes) {
  util::Reader r(delta);
  auto total_r = r.u64();
  if (!total_r) return total_r.error();
  const uint64_t total = total_r.value();
  if (total > max_state_bytes) {
    return util::Error::make("decode", "incremental delta announces oversized state (" +
                                           std::to_string(total) + " > " +
                                           std::to_string(max_state_bytes) + " bytes)");
  }
  auto n = r.u32();
  if (!n) return n.error();
  const uint64_t total_pages = page_count(static_cast<size_t>(total));
  if (n.value() > total_pages) {
    return util::Error::make("decode", "incremental delta carries more pages than the state holds");
  }
  // Validation pass: every check runs before `state` is touched.
  const size_t pages_at = r.position();
  std::vector<bool> seen(total_pages, false);
  for (uint32_t i = 0; i < n.value(); ++i) {
    auto page = r.u32();
    if (!page) return page.error();
    const uint64_t p = page.value();
    if (p >= total_pages) {
      return util::Error::make("decode", "incremental delta page beyond state size");
    }
    if (seen[p]) {
      return util::Error::make("decode", "incremental delta repeats page " + std::to_string(p));
    }
    seen[p] = true;
    auto data = r.view();  // zero-copy window into the delta
    if (!data) return data.error();
    const size_t off = static_cast<size_t>(p) * kPageBytes;
    const size_t expected = std::min<size_t>(kPageBytes, static_cast<size_t>(total) - off);
    if (data.value().size() != expected) {
      return util::Error::make("decode", "incremental delta page has wrong length");
    }
  }
  // Apply pass over the validated records.
  state.resize(static_cast<size_t>(total), std::byte{0});
  util::Reader pages(delta.subspan(pages_at));
  for (uint32_t i = 0; i < n.value(); ++i) {
    const size_t off = static_cast<size_t>(pages.u32().value()) * kPageBytes;
    const util::BytesView data = pages.view().value();
    std::memcpy(state.data() + off, data.data(), data.size());
  }
  return util::Status::ok_status();
}

util::Result<util::Bytes> incremental_apply(const util::Bytes& base, const util::Bytes& delta,
                                            uint64_t max_state_bytes) {
  util::Bytes out = base;
  if (auto s = incremental_apply_into(out, util::as_bytes_view(delta), max_state_bytes); !s.ok()) {
    return s.error();
  }
  return out;
}

}  // namespace starfish::ckpt
