// Incremental-checkpointing ablation (libckpt's optimization, paper §6),
// crossed with the payload compression lever.
//
// Part 1 — a native application with a large, sparsely-mutating state
// checkpoints periodically under stop-and-sync. Full images rewrite the
// whole state every epoch; incremental images write only the dirty pages
// (with a full anchor every 4 epochs). We compare bytes written and
// checkpoint latency.
//
// Part 2 — the same sparse workload at 1 MB, {full, incremental} images x
// STARFISH_CKPT_COMPRESS {off, lz}, on disk: bytes written, the
// ckpt.codec.* raw-vs-encoded ratio, and mean epoch latency. Incremental
// images are the one chained page delta; lz shrinks whatever payload an
// image carries.
//
// Part 3 — the same four configurations under the replica backend (4
// nodes, R=2 holders): bytes shipped to holders. The replica tier diffs
// each payload against what a holder already has, so full images at `off`
// already ship O(dirty pages) on warm epochs.
#include <cstdio>

#include "bench_util.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/replica.hpp"
#include "ckpt/store.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

using namespace starfish;

namespace {

struct Outcome {
  uint64_t bytes = 0;
  size_t images = 0;
  double mean_epoch_s = 0;
  uint64_t epochs = 0;
  uint64_t codec_raw = 0;      ///< ckpt.codec.raw_bytes (0 when mode is off)
  uint64_t codec_encoded = 0;  ///< ckpt.codec.encoded_bytes
  uint64_t shipped = 0;        ///< replica bytes shipped (replica backend only)
};

Outcome run(bool incremental, uint64_t state_bytes, int dirty_pages_per_step,
            ckpt::CompressMode mode = ckpt::CompressMode::kOff, bool replica = false) {
  obs::Hub hub;
  obs::set_default_hub(&hub);
  Outcome out;
  {
    core::ClusterOptions opts;
    opts.nodes = 2;
    opts.ckpt_compress = mode;
    if (replica) {
      opts.nodes = 4;
      opts.ckpt_backend = ckpt::CkptBackend::kReplica;
      opts.ckpt_replication = 2;
    }
    core::Cluster cluster(opts);
    cluster.registry().register_native("sparse", [state_bytes,
                                                  dirty_pages_per_step](core::AppContext& ctx) {
      util::Bytes state(state_bytes, std::byte{0});
      int64_t step = 0;
      util::Rng rng(1234 + ctx.rank());
      ctx.set_state_capture([&] { return state; });
      ctx.set_state_restore([&](const util::Bytes& b) { state = b; });
      while (step < 150) {
        ctx.compute(sim::milliseconds(10));
        ++step;
        for (int p = 0; p < dirty_pages_per_step; ++p) {
          const size_t off = rng.below(state.size());
          state[off] = static_cast<std::byte>(step & 0xff);
        }
      }
    });
    daemon::JobSpec job;
    job.name = "sparse";
    job.binary = "sparse";
    job.nprocs = 2;
    job.protocol = daemon::CrProtocol::kStopAndSync;
    job.level = daemon::CkptLevel::kNative;
    job.ckpt_interval = sim::milliseconds(60);
    job.incremental_ckpt = incremental;
    cluster.submit(job);
    if (!cluster.run_until_done("sparse", sim::seconds(300.0))) {
      obs::set_default_hub(nullptr);
      return out;
    }
    out.bytes = cluster.store().bytes_written();
    out.images = cluster.store().image_count();
    // epoch_stats covers every completed epoch, including those whose
    // per-epoch timestamps checkpoint gc already folded away.
    const auto stats = cluster.store().epoch_stats("sparse");
    out.epochs = stats.epochs;
    out.mean_epoch_s =
        stats.epochs > 0 ? sim::to_seconds(stats.total) / static_cast<double>(stats.epochs) : 0;
    if (const auto* c = hub.metrics.find_counter("ckpt.codec.raw_bytes")) out.codec_raw = c->value();
    if (const auto* c = hub.metrics.find_counter("ckpt.codec.encoded_bytes")) {
      out.codec_encoded = c->value();
    }
    if (const ckpt::ReplicaStore* r = cluster.store().replicas()) out.shipped = r->bytes_shipped();
  }
  obs::set_default_hub(nullptr);
  return out;
}

/// One point of the Part 2/3 sweep.
struct Config {
  bool incremental;
  ckpt::CompressMode mode;
};

constexpr Config kSweep[] = {{false, ckpt::CompressMode::kOff},
                             {false, ckpt::CompressMode::kLz},
                             {true, ckpt::CompressMode::kOff},
                             {true, ckpt::CompressMode::kLz}};

std::string config_name(const Config& c) {
  return std::string(c.incremental ? "incremental" : "full") + "+" +
         ckpt::compress_mode_name(c.mode);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::JsonReporter reporter(argc, argv);

  benchutil::header("Incremental-checkpointing ablation (full vs page-delta images)");
  std::printf("native app, 2 ranks, periodic stop-and-sync; a handful of pages dirty\n"
              "between consecutive epochs; full anchor every 4 epochs\n\n");
  std::printf("%10s %6s %14s %14s %8s %12s\n", "state", "mode", "bytes written",
              "mean ckpt [s]", "epochs", "reduction");
  for (uint64_t mb : {1ull, 4ull}) {
    const uint64_t state_bytes = mb * 1024 * 1024;
    const Outcome full = run(false, state_bytes, 4);
    const Outcome incr = run(true, state_bytes, 4);
    std::printf("%8lluMB %6s %14s %14.4f %8llu %12s\n",
                static_cast<unsigned long long>(mb), "full",
                util::format_bytes(full.bytes).c_str(), full.mean_epoch_s,
                static_cast<unsigned long long>(full.epochs), "-");
    char red[32];
    std::snprintf(red, sizeof red, "%.1fx",
                  static_cast<double>(full.bytes) / static_cast<double>(incr.bytes));
    std::printf("%8lluMB %6s %14s %14.4f %8llu %12s\n",
                static_cast<unsigned long long>(mb), "incr",
                util::format_bytes(incr.bytes).c_str(), incr.mean_epoch_s,
                static_cast<unsigned long long>(incr.epochs), red);
  }
  std::printf("\nshape checks: bytes written drop by the dirty-page ratio; checkpoint\n"
              "latency drops with them (less data on the disk's critical path).\n");

  benchutil::header("Compression sweep: {full, incremental} x STARFISH_CKPT_COMPRESS, disk");
  std::printf("same sparse workload, 1 MB state; incremental images carry the\n"
              "dirty pages, lz codes whatever payload an image carries\n\n");
  std::printf("%16s %14s %14s %12s %14s\n", "config", "bytes written", "codec ratio",
              "reduction", "mean ckpt [s]");
  double full_off_bytes = 0;
  for (const Config& c : kSweep) {
    benchutil::HostTimer timer;
    const Outcome o = run(c.incremental, 1024 * 1024, 4, c.mode);
    if (full_off_bytes == 0) full_off_bytes = static_cast<double>(o.bytes);
    char ratio[32], red[32];
    if (o.codec_raw > 0 && o.codec_encoded > 0) {
      std::snprintf(ratio, sizeof ratio, "%.1fx",
                    static_cast<double>(o.codec_raw) / static_cast<double>(o.codec_encoded));
    } else {
      std::snprintf(ratio, sizeof ratio, "-");
    }
    std::snprintf(red, sizeof red, "%.1fx", full_off_bytes / static_cast<double>(o.bytes));
    std::printf("%16s %14s %14s %12s %14.4f\n", config_name(c).c_str(),
                util::format_bytes(o.bytes).c_str(), ratio, red, o.mean_epoch_s);
    reporter.add({.name = "ckpt_codec/disk/config=" + config_name(c),
                  .host_ns = timer.ns(),
                  .sim_ns = static_cast<uint64_t>(sim::seconds(o.mean_epoch_s)),
                  .value = static_cast<double>(o.bytes)});
  }
  std::printf("\nshape checks: the zero-heavy sparse state compresses hard under lz;\n"
              "incremental images add the O(dirty pages) warm epochs on top. Mean epoch\n"
              "latency must not regress vs full+off — smaller files spend less time on\n"
              "the disk.\n");

  benchutil::header("Replica backend: bytes shipped to holders");
  std::printf("same sweep, 4 nodes, R=2 holders per image\n\n");
  std::printf("%16s %14s %12s %14s\n", "config", "shipped", "reduction", "mean ckpt [s]");
  double full_off_shipped = 0;
  for (const Config& c : kSweep) {
    benchutil::HostTimer timer;
    const Outcome o = run(c.incremental, 1024 * 1024, 4, c.mode, /*replica=*/true);
    if (full_off_shipped == 0) full_off_shipped = static_cast<double>(o.shipped);
    char red[32];
    std::snprintf(red, sizeof red, "%.1fx", full_off_shipped / static_cast<double>(o.shipped));
    std::printf("%16s %14s %12s %14.4f\n", config_name(c).c_str(),
                util::format_bytes(o.shipped).c_str(), red, o.mean_epoch_s);
    reporter.add({.name = "ckpt_codec/replica_shipped/config=" + config_name(c),
                  .host_ns = timer.ns(),
                  .sim_ns = static_cast<uint64_t>(sim::seconds(o.mean_epoch_s)),
                  .value = static_cast<double>(o.shipped)});
  }
  std::printf("\nshape check: the holders' page diff already makes warm full+off ships\n"
              "O(dirty pages); lz shrinks every ship.\n");

  if (!reporter.write("ablation_incremental")) return 1;
  return 0;
}
