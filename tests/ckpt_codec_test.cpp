// Checkpoint payload compression: LZ codec property tests, payload
// framing, corrupt-link fallback in latest_recoverable over lz-coded
// incremental chains, the store differential (restored bytes and
// content_hash must be invariant across off/lz), replica warm-ship
// accounting, and cluster-level crash recovery under both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/replica.hpp"
#include "ckpt/store.hpp"
#include "core/cluster.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"

namespace starfish::util::codec {
namespace {

Bytes random_bytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next() & 0xff);
  return b;
}

Bytes run_heavy_bytes(Rng& rng, size_t n) {
  Bytes b(n);
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min<size_t>(1 + rng.below(300), n - i);
    const auto v = static_cast<std::byte>(rng.below(4) * 0x55);
    std::fill(b.begin() + static_cast<ptrdiff_t>(i), b.begin() + static_cast<ptrdiff_t>(i + len),
              v);
    i += len;
  }
  return b;
}

Bytes structured_bytes(size_t n) {
  // Repeating 32-byte records with a counter field: the shape of container
  // payloads (tracker entries, channel state) the lz matcher exists for.
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t rec = i / 32;
    const size_t field = i % 32;
    b[i] = static_cast<std::byte>(field < 4 ? (rec >> (8 * field)) & 0xff : field * 7);
  }
  return b;
}

// Seeded random + pathological inputs: every generator and size must
// round-trip bit-exactly, verify clean, and announce the right raw size.
TEST(LzCodec, RoundTripsRandomAndPathologicalInputs) {
  Rng rng(0xc0dec);
  const size_t sizes[] = {0, 1, 3, 17, 63, 64, 65, 4095, 4096, 70000, 200001};
  for (size_t n : sizes) {
    const Bytes inputs[] = {Bytes(n, std::byte{0}), random_bytes(rng, n), run_heavy_bytes(rng, n),
                            structured_bytes(n)};
    for (const Bytes& raw : inputs) {
      const Bytes frame = lz_compress(as_bytes_view(raw));
      EXPECT_TRUE(lz_verify(as_bytes_view(frame)).ok()) << "n=" << n;
      auto announced = lz_raw_size(as_bytes_view(frame));
      ASSERT_TRUE(announced.ok()) << "n=" << n;
      EXPECT_EQ(announced.value(), n);
      auto back = lz_decompress(as_bytes_view(frame), n);
      ASSERT_TRUE(back.ok()) << "n=" << n;
      EXPECT_EQ(back.value(), raw) << "n=" << n;
      if (n > 0) {
        auto bounded = lz_decompress(as_bytes_view(frame), n - 1);
        EXPECT_FALSE(bounded.ok()) << "size bound not enforced at n=" << n;
      }
    }
  }
}

TEST(LzCodec, DeterministicAcrossCalls) {
  Rng rng(7);
  const Bytes raw = run_heavy_bytes(rng, 100000);
  EXPECT_EQ(lz_compress(as_bytes_view(raw)), lz_compress(as_bytes_view(raw)));
}

TEST(LzCodec, IncompressibleInputDegradesToStoredBlocks) {
  Rng rng(0xbad);
  const size_t n = 256 * 1024;
  const Bytes raw = random_bytes(rng, n);
  const Bytes frame = lz_compress(as_bytes_view(raw));
  const size_t blocks = (n + kLzBlockBytes - 1) / kLzBlockBytes;
  EXPECT_LE(frame.size(), n + 21 * blocks + 17) << "stored-block fallback blew the bound";
  auto back = lz_decompress(as_bytes_view(frame), n);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(LzCodec, RunHeavyInputCompressesHard) {
  const Bytes raw(128 * 1024, std::byte{0});
  const Bytes frame = lz_compress(as_bytes_view(raw));
  EXPECT_LT(frame.size(), raw.size() / 8);
}

// Robustness: every truncation point and every single-byte flip must be
// caught by verify or decode as a typed codec error — never UB, never a
// silent wrong payload. The frame's header fields and block bodies are all
// covered by structural checks or fingerprints, so detection is total.
TEST(LzCodec, TruncationAndBitFlipsYieldTypedErrors) {
  Rng rng(0x7f);
  const Bytes raw = structured_bytes(70000);  // spans two blocks
  const Bytes frame = lz_compress(as_bytes_view(raw));
  ASSERT_LT(frame.size(), raw.size());
  for (size_t cut = 0; cut < frame.size(); cut += 1 + cut / 3) {
    const BytesView prefix(frame.data(), cut);
    EXPECT_FALSE(lz_verify(prefix).ok()) << "cut=" << cut;
    auto back = lz_decompress(prefix, raw.size());
    ASSERT_FALSE(back.ok()) << "cut=" << cut;
    EXPECT_EQ(back.error().code, "codec");
  }
  for (size_t i = 0; i < frame.size(); i += 1 + rng.below(97)) {
    Bytes mangled = frame;
    mangled[i] ^= static_cast<std::byte>(1u << rng.below(8));
    if (mangled[i] == frame[i]) continue;
    const bool caught = !lz_verify(as_bytes_view(mangled)).ok() ||
                        !lz_decompress(as_bytes_view(mangled), raw.size()).ok();
    EXPECT_TRUE(caught) << "flip at " << i << " went undetected";
  }
}

}  // namespace
}  // namespace starfish::util::codec

namespace starfish::ckpt {
namespace {

using sim::milliseconds;
using sim::seconds;
using util::Bytes;

Bytes rand_payload(util::Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng.next() & 0xff);
  return b;
}

// ------------------------------------------------------ payload framing ----

TEST(PayloadCodec, FallsBackToRawWhenCodingDoesNotPay) {
  util::Rng rng(2);
  const Bytes raw = rand_payload(rng, 8 * kPageBytes);
  // Incompressible input under lz: stored blocks would inflate, so raw wins.
  const EncodedPayload lz = encode_payload(CompressMode::kLz, util::as_bytes_view(raw), nullptr);
  EXPECT_EQ(lz.codec, PayloadCodec::kRaw);
  EXPECT_EQ(lz.bytes, raw);
  // off never codes, however compressible the payload.
  const Bytes zeros(8 * kPageBytes, std::byte{0});
  const EncodedPayload off =
      encode_payload(CompressMode::kOff, util::as_bytes_view(zeros), nullptr);
  EXPECT_EQ(off.codec, PayloadCodec::kRaw);
  EXPECT_EQ(off.bytes, zeros);
}

TEST(PayloadCodec, DecodeRejectsTruncationAndCorruption) {
  util::Rng rng(3);
  const Bytes raw = util::codec::structured_bytes(16 * kPageBytes);
  obs::Hub hub;
  const EncodedPayload enc = encode_payload(CompressMode::kLz, util::as_bytes_view(raw), &hub);
  ASSERT_EQ(enc.codec, PayloadCodec::kLz);
  ASSERT_LT(enc.bytes.size(), raw.size());
  ASSERT_TRUE(verify_payload(enc.codec, util::as_bytes_view(enc.bytes)).ok());
  auto back = decode_payload(enc.codec, util::as_bytes_view(enc.bytes), raw.size(), &hub);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);

  // Announced-size bound: a frame may never drive an oversized allocation,
  // and a raw payload is held to the same bound.
  EXPECT_FALSE(
      decode_payload(enc.codec, util::as_bytes_view(enc.bytes), raw.size() - 1, &hub).ok());
  EXPECT_FALSE(decode_payload(PayloadCodec::kRaw, util::as_bytes_view(raw), raw.size() - 1, &hub)
                   .ok());

  // Truncation and bit flips: the block fingerprints cover every body byte,
  // so all damage is caught by verify or decode as a typed codec error.
  for (size_t cut = 0; cut < enc.bytes.size(); cut += 1 + cut / 2) {
    const util::BytesView prefix(enc.bytes.data(), cut);
    EXPECT_FALSE(verify_payload(enc.codec, prefix).ok()) << "cut=" << cut;
    auto got = decode_payload(enc.codec, prefix, raw.size(), &hub);
    ASSERT_FALSE(got.ok()) << "cut=" << cut;
    EXPECT_EQ(got.error().code, "codec");
  }
  for (size_t i = 0; i < enc.bytes.size(); i += 1 + rng.below(61)) {
    Bytes mangled = enc.bytes;
    mangled[i] ^= std::byte{0x20};
    const bool caught = !verify_payload(enc.codec, util::as_bytes_view(mangled)).ok() ||
                        !decode_payload(enc.codec, util::as_bytes_view(mangled), raw.size(), &hub)
                             .ok();
    EXPECT_TRUE(caught) << "flip at " << i;
  }
  const auto* errors = hub.metrics.find_counter("ckpt.codec.decode_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GT(errors->value(), 0u);
}

// ------------------------------------------------- store differential ----

// Epoch states that are mostly stable across epochs: per-(rank, page)
// pattern with two stamped pages plus a partial tail page per epoch, so an
// incremental image carries O(dirty pages) while every mode must restore
// identically.
Bytes epoch_payload(uint32_t rank, uint64_t epoch) {
  constexpr size_t kPages = 48;
  Bytes b(kPages * kPageBytes + 1234);
  for (size_t i = 0; i < b.size(); ++i) {
    const size_t p = i / kPageBytes;
    b[i] = static_cast<std::byte>((rank * 131 + p * 17 + i % 251) & 0xff);
  }
  const size_t d1 = (epoch % kPages) * kPageBytes;
  const size_t d2 = ((epoch * 7 + 3) % kPages) * kPageBytes;
  for (size_t i = 0; i < 64; ++i) {
    b[d1 + i] = static_cast<std::byte>((epoch * 31 + i) & 0xff);
    b[d2 + i] ^= std::byte{0x5a};
  }
  b[b.size() - 1] = static_cast<std::byte>(epoch & 0xff);
  return b;
}

Image payload_image(Bytes payload) {
  Image img;
  img.kind = ImageKind::kPortable;
  img.file_bytes = kPortableBaseBytes + payload.size();
  img.payload = std::move(payload);
  return img;
}

/// One link of an incremental chain, the shape CrModule stores: the full
/// state on the kFullEvery grid, else the page delta against the previous
/// epoch's state, with base_epoch naming that epoch.
Image chain_image(uint32_t rank, uint64_t epoch) {
  if (is_full_epoch(epoch)) return payload_image(epoch_payload(rank, epoch));
  Image img =
      payload_image(incremental_encode(epoch_payload(rank, epoch - 1), epoch_payload(rank, epoch)));
  img.incremental = true;
  img.base_epoch = epoch - 1;
  return img;
}

/// Reads `epoch`'s chain back through the store (full anchor, then each
/// delta oldest first) and resolves it the way CrModule::restore does.
std::optional<Bytes> restore_chain(CheckpointStore& store, sim::Host& host, uint32_t rank,
                                   uint64_t epoch) {
  std::vector<Image> links;
  for (uint64_t e = epoch;; e = links.back().base_epoch) {
    auto got = store.get(host, CkptKey{"app", rank, e});
    if (!got) return std::nullopt;
    EXPECT_EQ(got->codec, PayloadCodec::kRaw) << "store leaked coded bytes upward";
    links.push_back(std::move(*got));
    if (!links.back().incremental) break;
  }
  Bytes state = std::move(links.back().payload);
  for (auto it = links.rbegin() + 1; it != links.rend(); ++it) {
    if (!incremental_apply_into(state, util::as_bytes_view(it->payload)).ok()) return std::nullopt;
  }
  return state;
}

struct StoreRun {
  std::vector<Bytes> restored;  // per-epoch states, (epoch, rank) order
  uint64_t content_hash = 0;
  uint64_t bytes_written = 0;
};

StoreRun disk_run(CompressMode mode, bool incremental) {
  constexpr uint32_t kRanks = 2;
  constexpr uint64_t kEpochs = 7;
  sim::Engine eng;
  net::Network net{eng};
  for (int i = 0; i < 2; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.set_compress_mode(mode);
  StoreRun out;
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      for (uint32_t r = 0; r < kRanks; ++r) {
        store.put(*net.host(0), CkptKey{"app", r, e},
                  incremental ? chain_image(r, e) : payload_image(epoch_payload(r, e)));
      }
      store.commit("app", e);
    }
    for (uint64_t e = 1; e <= kEpochs; ++e) {
      for (uint32_t r = 0; r < kRanks; ++r) {
        auto got = restore_chain(store, *net.host(1), r, e);
        ASSERT_TRUE(got.has_value()) << compress_mode_name(mode) << " r" << r << " e" << e;
        out.restored.push_back(std::move(*got));
      }
    }
  });
  eng.run();
  out.content_hash = store.content_hash();
  out.bytes_written = store.bytes_written();
  return out;
}

// The acceptance differential: off and lz restore bit-identical states and
// hash to the same store content, for full images and incremental chains
// alike; lz writes less disk, and lz-coded incremental chains least.
TEST(StoreCompressDifferential, AllModesRestoreIdenticalBytesAndHash) {
  const StoreRun off = disk_run(CompressMode::kOff, false);
  ASSERT_EQ(off.restored.size(), 14u);
  for (size_t i = 0; i < off.restored.size(); ++i) {
    EXPECT_EQ(off.restored[i], epoch_payload(static_cast<uint32_t>(i % 2), 1 + i / 2));
  }
  const StoreRun lz = disk_run(CompressMode::kLz, false);
  EXPECT_EQ(lz.restored, off.restored);
  EXPECT_EQ(lz.content_hash, off.content_hash);
  EXPECT_LT(lz.bytes_written, off.bytes_written);

  const StoreRun chain_off = disk_run(CompressMode::kOff, true);
  const StoreRun chain_lz = disk_run(CompressMode::kLz, true);
  EXPECT_EQ(chain_off.restored, off.restored);
  EXPECT_EQ(chain_lz.restored, off.restored);
  EXPECT_EQ(chain_lz.content_hash, chain_off.content_hash);
  // Incremental images are O(dirty pages): beyond the per-image base cost
  // the chain writes less than half of what full images write, and lz
  // shrinks it further.
  const uint64_t base_cost = 14 * kPortableBaseBytes;
  EXPECT_LT(chain_off.bytes_written - base_cost, (off.bytes_written - base_cost) / 2);
  EXPECT_LT(chain_lz.bytes_written, chain_off.bytes_written);
  EXPECT_LT(chain_lz.bytes_written, lz.bytes_written);
}

// ------------------------------------------------ fault-injection tests ----

/// Bytes the store saved on `key` against the raw image: positive when the
/// payload went to the store lz-coded.
int64_t coding_saving(const CheckpointStore& store, const CkptKey& key, const Image& raw) {
  return static_cast<int64_t>(raw.file_bytes) - static_cast<int64_t>(*store.file_bytes(key));
}

// A corrupted or truncated lz frame anywhere in an incremental chain must
// surface as a typed decode failure and move latest_recoverable to the next
// epoch whose chain still verifies — never an abort, never a poisoned
// restore.
TEST(StoreFaultInjection, CorruptedChunksFallBackToOlderEpochs) {
  sim::Engine eng;
  obs::Hub hub;
  eng.set_obs(&hub);
  net::Network net{eng};
  net.add_host("node0");
  CheckpointStore store{eng};
  store.set_compress_mode(CompressMode::kLz);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 7; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, chain_image(0, e));
      store.commit("app", e);
    }
  });
  eng.run();
  for (uint64_t e = 1; e <= 7; ++e) {
    ASSERT_GT(coding_saving(store, CkptKey{"app", 0, e}, chain_image(0, e)), 0)
        << "epoch " << e << " was not stored lz-coded";
  }
  ASSERT_EQ(store.latest_recoverable("app", 1), 7u);

  // Flip a byte mid-frame in the newest epoch: its chain alone breaks.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 7}, 33));
  EXPECT_EQ(store.latest_recoverable("app", 1), 6u);

  // Truncate epoch 6: both 6 and (already-corrupt) 7 are gone; 5 is the
  // full anchor of this kFullEvery window and still verifies.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 6}, 4, /*truncate=*/true));
  EXPECT_EQ(store.latest_recoverable("app", 1), 5u);

  // Corrupt the full anchor itself: every delta hanging off it (6, 7) was
  // already dead; the previous window's chain 4 -> 3 -> 2 -> 1 survives.
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 5}, 1000));
  EXPECT_EQ(store.latest_recoverable("app", 1), 4u);

  bool checked = false;
  net.host(0)->spawn("reader", [&] {
    // Reads of the damaged epochs fail soft (nullopt, counted) ...
    EXPECT_FALSE(store.get(*net.host(0), CkptKey{"app", 0, 7}).has_value());
    EXPECT_FALSE(store.get(*net.host(0), CkptKey{"app", 0, 5}).has_value());
    EXPECT_FALSE(restore_chain(store, *net.host(0), 0, 6).has_value());
    // ... and the fallback epoch restores bit-exactly through its chain.
    auto got = restore_chain(store, *net.host(0), 0, 4);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, epoch_payload(0, 4));
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
  const auto* errors = hub.metrics.find_counter("ckpt.codec.decode_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GT(errors->value(), 0u);
}

TEST(ReplicaFaultInjection, CorruptedReplicaChunkMovesTheRecoveryLine) {
  sim::Engine eng;
  net::Network net{eng};
  for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.enable_replica_backend(net);
  store.set_backend(CkptBackend::kReplica);
  store.set_compress_mode(CompressMode::kLz);
  net.host(0)->spawn("writer", [&] {
    for (uint64_t e = 1; e <= 3; ++e) {
      store.put(*net.host(0), CkptKey{"app", 0, e}, chain_image(0, e), {1, 2});
      store.commit("app", e);
    }
  });
  eng.run();
  ASSERT_EQ(store.latest_recoverable("app", 1), 3u);
  ASSERT_TRUE(store.corrupt_payload(CkptKey{"app", 0, 3}, 21));
  EXPECT_EQ(store.latest_recoverable("app", 1), 2u)
      << "a corrupt replica chunk must disqualify its chain, not abort";
  bool checked = false;
  net.host(3)->spawn("reader", [&] {
    EXPECT_FALSE(store.get(*net.host(3), CkptKey{"app", 0, 3}).has_value());
    auto got = restore_chain(store, *net.host(3), 0, 2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, epoch_payload(0, 2));
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
}

// --------------------------------------------------- replica warm ship ----

// With compression off, a warm epoch ships O(dirty pages) bytes to each
// holder: the replica tier's own page diff against what the holder already
// has skips every clean page.
TEST(ReplicaWarmShip, DeltaEpochsShipOnlyDirtyPages) {
  sim::Engine eng;
  obs::Hub hub;
  eng.set_obs(&hub);
  net::Network net{eng};
  for (int i = 0; i < 4; ++i) net.add_host("node" + std::to_string(i));
  CheckpointStore store{eng};
  store.enable_replica_backend(net);
  store.set_backend(CkptBackend::kReplica);
  store.set_compress_mode(CompressMode::kOff);
  util::Rng rng(9);
  const Bytes cold_payload = rand_payload(rng, 64 * kPageBytes);  // incompressible
  Bytes warm_payload = cold_payload;
  for (size_t i = 0; i < kPageBytes; ++i) {
    warm_payload[11 * kPageBytes + i] = static_cast<std::byte>(rng.next() & 0xff);
  }
  uint64_t cold = 0, warm = 0;
  net.host(0)->spawn("writer", [&] {
    store.put(*net.host(0), CkptKey{"app", 0, 1}, payload_image(cold_payload), {1, 2});
    cold = store.replicas()->bytes_shipped();
    store.put(*net.host(0), CkptKey{"app", 0, 2}, payload_image(warm_payload), {1, 2});
    warm = store.replicas()->bytes_shipped() - cold;
  });
  eng.run();
  // Epoch 1 finds the holders cold: 64 pages per holder.
  EXPECT_EQ(cold, 2 * (kReplicaHeaderBytes + 64 * kPageBytes));
  // Epoch 2 differs in one page: the header and that page, per holder.
  EXPECT_EQ(warm, 2 * (kReplicaHeaderBytes + kPageBytes));
  EXPECT_EQ(hub.metrics.find_counter("ckpt.codec.raw_bytes"), nullptr) << "codec ran at off";

  // And the warm epoch restores bit-exactly.
  bool checked = false;
  net.host(3)->spawn("reader", [&] {
    auto got = store.get(*net.host(3), CkptKey{"app", 0, 2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, warm_payload);
    checked = true;
  });
  eng.run();
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace starfish::ckpt

// ------------------------------------------------------ cluster level ----

namespace starfish::core {
namespace {

using sim::milliseconds;
using sim::seconds;

std::string ring_program(int rounds, int spin) {
  return R"(
func main 0 2
  syscall rank
  store_local 0
  syscall world_size
  store_local 1
  push_int 0
  store_global 0
  push_int 0
  store_global 1
loop:
  load_global 0
  push_int )" + std::to_string(rounds) + R"(
  ge
  jmp_if_false body
  jmp done
body:
  push_int )" + std::to_string(spin) + R"(
  syscall spin
  load_local 0
  push_int 0
  eq
  jmp_if_false relay
  push_int 1
  load_global 1
  syscall send_to
  push_int -1
  syscall recv_from
  store_global 1
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
relay:
  push_int -1
  syscall recv_from
  load_local 0
  add
  store_global 1
  load_local 0
  push_int 1
  add
  load_local 1
  mod
  load_global 1
  syscall send_to
  load_global 0
  push_int 1
  add
  store_global 0
  jmp loop
done:
  load_local 0
  push_int 0
  eq
  jmp_if_false finish
  load_global 1
  syscall print
finish:
  halt
)";
}

int64_t expected_token(uint32_t n, int rounds) {
  int64_t per = 0;
  for (uint32_t r = 1; r < n; ++r) per += r;
  return per * rounds;
}

bool output_contains(const std::vector<std::string>& lines, const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
    return l.find(needle) != std::string::npos;
  });
}

daemon::JobSpec ring_job(const std::string& name, uint32_t nprocs) {
  daemon::JobSpec j;
  j.name = name;
  j.binary = "ring";
  j.nprocs = nprocs;
  j.policy = daemon::FtPolicy::kRestart;
  j.protocol = daemon::CrProtocol::kStopAndSync;
  j.level = daemon::CkptLevel::kVm;
  j.ckpt_interval = milliseconds(50);
  return j;
}

std::vector<std::string> crash_recovery_run(ckpt::CompressMode mode) {
  ClusterOptions opts;
  opts.nodes = 4;
  opts.ckpt_compress = mode;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(30, 100000));
  cluster.submit(ring_job("codec", 4));
  cluster.run_for(milliseconds(300));
  EXPECT_TRUE(cluster.store().latest_committed("codec").has_value())
      << ckpt::compress_mode_name(mode) << ": nothing committed before the crash";
  cluster.crash_node(2);
  EXPECT_TRUE(cluster.run_until_done("codec", seconds(240.0))) << ckpt::compress_mode_name(mode);
  return cluster.output("codec");
}

// Crash mid-run under both modes: recovery restores from a committed epoch
// whose payload travelled through the mode's codec, and the application
// result is identical.
TEST(ClusterCompressDifferential, CrashRecoveryIsModeInvariant) {
  const std::vector<std::string> off = crash_recovery_run(ckpt::CompressMode::kOff);
  EXPECT_TRUE(output_contains(off, std::to_string(expected_token(4, 30))));
  EXPECT_EQ(crash_recovery_run(ckpt::CompressMode::kLz), off);
}

// Mixed-endianness SFV2 payloads through the coded incremental pipeline:
// the crash moves rank placement across representations, so restore
// decompresses lz frames, resolves the incremental chain and then converts
// endianness/word size.
TEST(ClusterCompressHeterogeneous, DeltaLzRestoresAcrossRepresentations) {
  ClusterOptions opts;
  auto machines = sim::table2_machines();
  opts.machines = {machines[0], machines[1], machines[5], machines[2]};  // LE32, BE32, LE64, BE32
  opts.nodes = 4;
  opts.ckpt_compress = ckpt::CompressMode::kLz;
  Cluster cluster(std::move(opts));
  cluster.registry().register_vm("ring", ring_program(40, 100000));
  daemon::JobSpec job = ring_job("hetero", 4);
  job.incremental_ckpt = true;
  cluster.submit(job);
  cluster.run_for(milliseconds(130));
  cluster.crash_node(0);  // the little-endian 32-bit node dies
  ASSERT_TRUE(cluster.run_until_done("hetero", seconds(240.0)));
  EXPECT_TRUE(
      output_contains(cluster.output("hetero"), std::to_string(expected_token(4, 40))));
}

}  // namespace
}  // namespace starfish::core
