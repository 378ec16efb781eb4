// Real-time microbenchmarks (google-benchmark) of the substrate hot paths:
// the figure/table benches above measure *virtual* time inside the
// simulator; these measure how fast the simulator and codecs themselves run
// on the host, which bounds how large an experiment is practical.
#include <benchmark/benchmark.h>

#include <cstring>

#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "gcs/wire.hpp"
#include "mpi/datatype.hpp"
#include "mpi/frame.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/buffer.hpp"
#include "util/codec/lz.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"

using namespace starfish;

namespace {

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule(sim::microseconds(i), [] {});
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventDispatch);

// Wake-heavy: the dominant block/wake/resume cycle (every recv, every GCS
// deliver, every sync primitive). Two fibers ping-pong through a pair of
// channels, so each item is one park + one zero-delay wake + one resume on
// each side, with no timer involved after warmup.
void BM_EngineWakeHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ping(eng);
    sim::Channel<int> pong(eng);
    eng.spawn("ponger", [&] {
      for (int i = 0; i < 1000; ++i) {
        (void)ping.recv();
        pong.send(i);
      }
    });
    eng.spawn("pinger", [&] {
      for (int i = 0; i < 1000; ++i) {
        ping.send(i);
        (void)pong.recv();
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // wakes per iteration
}
BENCHMARK(BM_EngineWakeHeavy);

// Spawn-heavy: daemon restarts, chaos churn, per-message handler fibers.
// Waves of short-lived fibers; the driver joins each wave before launching
// the next, so stack recycling (when present) can serve every wave after
// the first from the pool.
void BM_EngineSpawnHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn("driver", [&eng] {
      for (int wave = 0; wave < 125; ++wave) {
        for (int i = 0; i < 8; ++i) {
          eng.spawn("worker", [&eng] { eng.sleep(sim::microseconds(1)); });
        }
        eng.sleep(sim::microseconds(2));  // joins the wave: workers exit first
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // fibers per iteration
}
BENCHMARK(BM_EngineSpawnHeavy);

// Mixed timers: many fibers asleep on staggered deadlines keep the timer
// heap deep while short sleeps churn its top — the scheduling mix of the
// fig benches (heartbeats + link delays + disk transfers).
void BM_EngineMixedTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 64; ++i) {
      eng.spawn("timer", [&eng, i] {
        for (int k = 0; k < 32; ++k) {
          eng.sleep(sim::microseconds((i * 37 + k * 11) % 97 + 1));
        }
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 32);
}
BENCHMARK(BM_EngineMixedTimers);

void BM_FiberContextSwitch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn("switcher", [&eng] {
      for (int i = 0; i < 1000; ++i) eng.yield();
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // two switches per yield
}
BENCHMARK(BM_FiberContextSwitch);

void BM_ChannelSendRecv(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> ch(eng);
    eng.spawn("rx", [&] {
      for (int i = 0; i < 1000; ++i) (void)ch.recv();
    });
    eng.spawn("tx", [&] {
      for (int i = 0; i < 1000; ++i) ch.send(i);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelSendRecv);

void BM_BufferWriterU64(benchmark::State& state) {
  for (auto _ : state) {
    util::Bytes out;
    out.reserve(8 * 1024);
    util::Writer w(out);
    for (int i = 0; i < 1024; ++i) w.u64(static_cast<uint64_t>(i) * 0x9e3779b9);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * 8 * 1024);
}
BENCHMARK(BM_BufferWriterU64);

void BM_MpiFrameRoundtrip(benchmark::State& state) {
  mpi::Frame f;
  f.kind = mpi::FrameKind::kEager;
  f.comm = 0;
  f.src_rank = 3;
  f.dst_rank = 7;
  f.tag = 42;
  f.payload = util::Bytes(static_cast<size_t>(state.range(0)), std::byte{0x5a});
  for (auto _ : state) {
    auto bytes = f.encode();
    auto back = mpi::Frame::decode(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MpiFrameRoundtrip)->Arg(64)->Arg(4096)->Arg(65536);

void BM_PortableImageEncode(benchmark::State& state) {
  vm::VmState s;
  vm::HeapObject blob;
  blob.kind = vm::HeapObject::Kind::kBytes;
  blob.bytes = util::Bytes(static_cast<size_t>(state.range(0)), std::byte{1});
  s.heap.push_back(std::move(blob));
  for (int i = 0; i < 256; ++i) s.globals.push_back(vm::Value::integer(i));
  for (auto _ : state) {
    auto img = ckpt::portable_encode(sim::default_machine(), s);
    benchmark::DoNotOptimize(img.payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PortableImageEncode)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_PortableImageCrossDecode(benchmark::State& state) {
  // Encode big-endian 32-bit, decode little-endian 64-bit: the conversion
  // path of the Table 2 matrix.
  auto machines = sim::table2_machines();
  vm::VmState s;
  for (int i = 0; i < 4096; ++i) s.globals.push_back(vm::Value::integer(i * 3));
  auto img = ckpt::portable_encode(machines[1], s);
  for (auto _ : state) {
    auto back = ckpt::portable_decode(img, machines[5]);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PortableImageCrossDecode);

// --- incremental checkpoint encoding, mostly-unchanged state -------------
//
// The interesting case for incremental checkpoints is a long-running app
// whose state barely moves between epochs: a few dirty pages in a large
// blob. BM_IncrementalEncodeTwoPass replicates the original encoder (one
// full memcmp pass to count changed pages, a second to emit them);
// BM_IncrementalEncodeHashed is the shipped single-pass encoder with a warm
// PageHashCache, which fingerprints the current state once and never reads
// the previous epoch at all.

constexpr size_t kIncrStateBytes = 16 * 1024 * 1024;
constexpr size_t kIncrDirtyPages = 4;

/// Faithful replica of the pre-optimization two-pass encoder, kept here so
/// the speedup stays measurable against the real baseline.
util::Bytes incremental_encode_two_pass(const util::Bytes& prev, const util::Bytes& cur) {
  util::Bytes out;
  util::Writer w(out);
  w.u64(cur.size());
  const size_t n_pages = (cur.size() + ckpt::kPageBytes - 1) / ckpt::kPageBytes;
  uint32_t changed = 0;
  auto page_differs = [&](size_t p) {
    const size_t off = p * ckpt::kPageBytes;
    const size_t len = std::min(ckpt::kPageBytes, cur.size() - off);
    if (off >= prev.size()) return true;
    const size_t prev_len = std::min(ckpt::kPageBytes, prev.size() - off);
    if (prev_len != len) return true;
    return std::memcmp(prev.data() + off, cur.data() + off, len) != 0;
  };
  for (size_t p = 0; p < n_pages; ++p) {
    if (page_differs(p)) ++changed;
  }
  w.u32(changed);
  for (size_t p = 0; p < n_pages; ++p) {
    if (!page_differs(p)) continue;
    const size_t off = p * ckpt::kPageBytes;
    const size_t len = std::min(ckpt::kPageBytes, cur.size() - off);
    w.u32(static_cast<uint32_t>(p));
    w.bytes({cur.data() + off, len});
  }
  return out;
}

/// Two `bytes`-sized states differing in kIncrDirtyPages pages, spread
/// across the blob. Benchmarks ping-pong between them so every iteration
/// diffs a state against a genuinely different predecessor.
std::pair<util::Bytes, util::Bytes> incr_states(size_t bytes = kIncrStateBytes) {
  util::Bytes a(bytes, std::byte{0x11});
  util::Bytes b = a;
  const size_t n_pages = bytes / ckpt::kPageBytes;
  for (size_t i = 0; i < kIncrDirtyPages; ++i) {
    b[(i * (n_pages / kIncrDirtyPages) + 1) * ckpt::kPageBytes] = std::byte{0xee};
  }
  return {std::move(a), std::move(b)};
}

void BM_IncrementalEncodeTwoPass(benchmark::State& state) {
  auto [a, b] = incr_states();
  bool flip = false;
  for (auto _ : state) {
    auto delta = incremental_encode_two_pass(flip ? b : a, flip ? a : b);
    flip = !flip;
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kIncrStateBytes);
}
BENCHMARK(BM_IncrementalEncodeTwoPass);

void BM_IncrementalEncodeHashed(benchmark::State& state) {
  auto [a, b] = incr_states();
  ckpt::PageHashCache cache;
  cache.rebuild(util::as_bytes_view(a));  // warm, as after a full epoch
  bool flip = false;                      // first iteration diffs a -> b
  for (auto _ : state) {
    auto delta = ckpt::incremental_encode(flip ? b : a, flip ? a : b, nullptr, &cache);
    flip = !flip;
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kIncrStateBytes);
}
BENCHMARK(BM_IncrementalEncodeHashed);

// --- VM instruction dispatch -------------------------------------------
//
// The VM is the compute substrate of fig4/table2: every simulated
// application instruction goes through Interpreter::run. These benches pin
// the three shapes that dominate real programs — a tight arithmetic loop
// (the canonical accumulate/increment/compare/branch idiom), call-heavy
// recursion, and the syscall round-trip into the host and back.

vm::Program must_assemble_bench(const std::string& src) {
  auto r = vm::assemble(src);
  if (!r.ok()) {
    fprintf(stderr, "bench program failed to assemble: %s\n",
            r.error().to_string().c_str());
    abort();
  }
  return std::move(r).take();
}

// sum 1..20000 via locals: 20k iterations x 14 instructions + prologue.
const char* kVmArithLoopSrc = R"(
func main 0 2
  push_int 0
  store_local 0
  push_int 1
  store_local 1
loop:
  load_local 1
  push_int 20000
  le
  jmp_if_false done
  load_local 0
  load_local 1
  add
  store_local 0
  load_local 1
  push_int 1
  add
  store_local 1
  jmp loop
done:
  load_local 0
  halt
)";

void BM_VmArithLoop(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(kVmArithLoopSrc);
  uint64_t steps = 0;
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    auto r = interp.run();
    if (r.status != vm::RunStatus::kHalted) abort();
    steps = interp.state().steps_executed;
    benchmark::DoNotOptimize(interp.state().stack.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmArithLoop);

// fib(18) by naive recursion: ~8k calls, each a frame push/arg move/ret.
void BM_VmCallHeavy(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(R"(
func main 0 0
  push_int 18
  call fib
  halt
func fib 1 1
  load_local 0
  push_int 2
  lt
  jmp_if_false rec
  load_local 0
  ret
rec:
  load_local 0
  push_int 1
  sub
  call fib
  load_local 0
  push_int 2
  sub
  call fib
  add
  ret
)");
  uint64_t steps = 0;
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    auto r = interp.run();
    if (r.status != vm::RunStatus::kHalted) abort();
    steps = interp.state().steps_executed;
    benchmark::DoNotOptimize(interp.state().stack.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(steps));
}
BENCHMARK(BM_VmCallHeavy);

// 1000 rank syscalls serviced by the host: run-to-syscall, push the reply,
// complete, resume — the exact control transfer run_vm_app makes per call.
void BM_VmSyscallRoundtrip(benchmark::State& state) {
  vm::Program prog = must_assemble_bench(R"(
func main 0 1
  push_int 0
  store_local 0
loop:
  syscall rank
  pop
  load_local 0
  push_int 1
  add
  store_local 0
  load_local 0
  push_int 1000
  lt
  jmp_if_false done
  jmp loop
done:
  halt
)");
  for (auto _ : state) {
    vm::Interpreter interp(prog, sim::default_machine());
    interp.start();
    for (;;) {
      auto r = interp.run();
      if (r.status == vm::RunStatus::kHalted) break;
      if (r.status != vm::RunStatus::kSyscall) abort();
      interp.push_value(vm::Value::integer(3));
      interp.complete_syscall();
    }
    benchmark::DoNotOptimize(interp.state().steps_executed);
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // round-trips
}
BENCHMARK(BM_VmSyscallRoundtrip);

void BM_GcsWireRoundtrip(benchmark::State& state) {
  gcs::WireMsg msg;
  msg.kind = gcs::MsgKind::kOrder;
  msg.from = {2, 0};
  msg.gseq = 123456;
  msg.origin = {1, 0};
  msg.payload = util::Bytes(256, std::byte{7});
  for (auto _ : state) {
    auto bytes = msg.encode();
    auto back = gcs::WireMsg::decode(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_GcsWireRoundtrip);

// --- SIMD data-plane kernels: dispatched vs forced-scalar ----------------
//
// Each pair runs one hot path under the dispatched table and again with the
// scalar reference forced, so the speedup that justifies the dispatch layer
// stays measurable on any host (EXPERIMENTS.md records the ratios; the
// bit-identity of the outputs is pinned by tests/simd_differential_test.cpp).

namespace simd = util::simd;

/// Forces one ISA level for the duration of a benchmark run.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : prev_(simd::level()) { simd::force(isa); }
  ~ScopedIsa() { simd::force(prev_); }

 private:
  simd::Isa prev_;
};

void fingerprint_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  const size_t n = static_cast<size_t>(state.range(0));
  util::Bytes buf(n, std::byte{0x5a});
  for (size_t i = 0; i < n; i += 97) buf[i] = static_cast<std::byte>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::fingerprint(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n);
}
void BM_FingerprintDispatch(benchmark::State& state) {
  fingerprint_bench(state, simd::level());
}
void BM_FingerprintScalar(benchmark::State& state) {
  fingerprint_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_FingerprintDispatch)->Arg(4096)->Arg(16 * 1024 * 1024);
BENCHMARK(BM_FingerprintScalar)->Arg(4096)->Arg(16 * 1024 * 1024);

// The warm incremental-checkpoint encode (fingerprint-dominated: one hash
// pass, 4 dirty pages) — the end-to-end path the dispatch layer was built
// for, A/B'd against the scalar reference. 512 KB state so both copies of
// the ping-pong stay L2-resident and the A/B measures the hash kernels,
// not this host's cache hierarchy (the 16 MB streaming case keeps its own
// BM_IncrementalEncode* benches above).
constexpr size_t kWarmEncodeBytes = 512 * 1024;

void warm_encode_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  auto [a, b] = incr_states(kWarmEncodeBytes);
  ckpt::PageHashCache cache;
  cache.rebuild(util::as_bytes_view(a));
  bool flip = false;
  for (auto _ : state) {
    auto delta = ckpt::incremental_encode(flip ? b : a, flip ? a : b, nullptr, &cache);
    flip = !flip;
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kWarmEncodeBytes);
}
void BM_FingerprintWarmEncodeDispatch(benchmark::State& state) {
  warm_encode_bench(state, simd::level());
}
void BM_FingerprintWarmEncodeScalar(benchmark::State& state) {
  warm_encode_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_FingerprintWarmEncodeDispatch);
BENCHMARK(BM_FingerprintWarmEncodeScalar);

/// Int-heavy state whose portable image is dominated by the integer column.
vm::VmState convert_state(size_t n_ints) {
  vm::VmState s;
  s.globals.reserve(n_ints);
  for (size_t i = 0; i < n_ints; ++i) {
    s.globals.push_back(vm::Value::integer(static_cast<int32_t>(i * 2654435761u)));
  }
  return s;
}

// Encode on a big-endian 32-bit saver from this (little-endian) host: the
// byteswap + narrow direction of the heterogeneous conversion.
void image_encode_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  auto machines = sim::table2_machines();
  const vm::VmState s = convert_state(1 << 16);
  for (auto _ : state) {
    auto img = ckpt::portable_encode(machines[1], s);
    benchmark::DoNotOptimize(img.payload.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (1 << 16));
}
void BM_ImageConvertEncodeDispatch(benchmark::State& state) {
  image_encode_bench(state, simd::level());
}
void BM_ImageConvertEncodeScalar(benchmark::State& state) {
  image_encode_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_ImageConvertEncodeDispatch);
BENCHMARK(BM_ImageConvertEncodeScalar);

// Decode the same image on a little-endian 64-bit target: byteswap + widen.
void image_decode_bench(benchmark::State& state, simd::Isa isa) {
  ScopedIsa forced(isa);
  auto machines = sim::table2_machines();
  const auto img = ckpt::portable_encode(machines[1], convert_state(1 << 16));
  for (auto _ : state) {
    auto back = ckpt::portable_decode(img, machines[5]);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (1 << 16));
}
void BM_ImageConvertDecodeDispatch(benchmark::State& state) {
  image_decode_bench(state, simd::level());
}
void BM_ImageConvertDecodeScalar(benchmark::State& state) {
  image_decode_bench(state, simd::Isa::kScalar);
}
BENCHMARK(BM_ImageConvertDecodeDispatch);
BENCHMARK(BM_ImageConvertDecodeScalar);

// Large-message pack + unpack of a strided vector layout (a 256 KB matrix
// band: 256-byte blocks every 512 bytes), and the contiguous fast path.
// Both run one memcpy per plan run, so they do not depend on the SIMD
// level. Cache-resident on purpose: at multi-MB sizes every layout is
// DRAM-bound and the bench would measure the memory bus, not the plan.
void datatype_pack_bench(benchmark::State& state, bool contiguous) {
  const size_t total = 256 * 1024;
  const auto dt = contiguous ? mpi::Datatype::contiguous(total, 1)
                             : mpi::Datatype::vector(total / 512, 256, 512, 1);
  util::Bytes buf(dt.extent(), std::byte{0x3c});
  util::Bytes scatter(dt.extent());
  for (auto _ : state) {
    auto packed = dt.pack(util::as_bytes_view(buf));
    benchmark::DoNotOptimize(packed.value().data());
    auto st = dt.unpack(packed.value(), scatter);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 * dt.packed_bytes());
}
void BM_DatatypePackStridedDispatch(benchmark::State& state) {
  datatype_pack_bench(state, false);
}
void BM_DatatypePackContiguous(benchmark::State& state) {
  datatype_pack_bench(state, true);
}
BENCHMARK(BM_DatatypePackStridedDispatch);
BENCHMARK(BM_DatatypePackContiguous);

// --- checkpoint LZ codec (STARFISH_CKPT_COMPRESS=lz) ---------------------
//
// Host cost per byte of the lz mode on a checkpoint-shaped state: 1 MB of
// 4 KB pages, mostly zero, each page carrying four 64-byte stripes drawn
// from a small seeded pool. Zero runs become overlapping (offset-1)
// matches, repeated stripes become far matches copied with memcpy, and the
// first sight of each stripe is a literal run.
constexpr size_t kLzStateBytes = 1024 * 1024;

util::Bytes lz_state() {
  util::Rng rng(0x1c0dec);
  util::Bytes pool(16 * 64);
  for (auto& b : pool) b = static_cast<std::byte>(rng.next() & 0xff);
  util::Bytes s(kLzStateBytes, std::byte{0});
  for (size_t page = 0; page < kLzStateBytes / ckpt::kPageBytes; ++page) {
    for (int k = 0; k < 4; ++k) {
      const size_t at = page * ckpt::kPageBytes + (rng.next() % (ckpt::kPageBytes / 64)) * 64;
      std::memcpy(s.data() + at, pool.data() + (rng.next() % 16) * 64, 64);
    }
  }
  return s;
}

void BM_LzEncode(benchmark::State& state) {
  const util::Bytes raw = lz_state();
  for (auto _ : state) {
    auto frame = util::codec::lz_compress(util::as_bytes_view(raw));
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLzStateBytes);
}
BENCHMARK(BM_LzEncode);

void BM_LzDecode(benchmark::State& state) {
  const util::Bytes raw = lz_state();
  const util::Bytes frame = util::codec::lz_compress(util::as_bytes_view(raw));
  for (auto _ : state) {
    auto back = util::codec::lz_decompress(util::as_bytes_view(frame), kLzStateBytes);
    benchmark::DoNotOptimize(back.value().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kLzStateBytes);
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_LzDecode);

}  // namespace

BENCHMARK_MAIN();
