// Extension experiment: checkpoint-time scaling with node count.
//
// Figures 3 and 4 stop at 4 nodes; this sweep extends the x-axis to 16,
// separating the two components of the distributed checkpoint time: the
// (parallel) per-node disk write, and the coordination term that grows with
// membership — the paper's "faster C/R protocols" future-work direction is
// about attacking the latter, and the forked variant shows how much of it
// the application actually feels.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "ckpt/image.hpp"

using namespace starfish;

namespace {

double run_once(uint32_t nodes, bool forked) {
  core::ClusterOptions opts;
  opts.nodes = nodes;
  core::Cluster cluster(opts);
  cluster.registry().register_vm("blob", benchutil::blob_checkpoint_program(1024 * 1024));
  daemon::JobSpec job;
  job.name = "scale";
  job.binary = "blob";
  job.nprocs = nodes;
  job.protocol = daemon::CrProtocol::kStopAndSync;
  job.level = daemon::CkptLevel::kVm;
  job.forked_ckpt = forked;
  cluster.submit(job);
  return benchutil::measure_epoch_seconds(cluster, "scale");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::JsonReporter json(argc, argv);
  benchutil::MetricsReporter metrics(argc, argv);

  benchutil::header("Node-count scaling of stop-and-sync (1.25 MB images per rank)");
  std::printf("extends Figures 3/4 beyond the paper's 4 nodes; the disk term stays\n"
              "flat (writes are parallel) while coordination grows with membership\n\n");
  std::printf("%8s %18s %18s\n", "nodes", "stop-and-sync [s]", "forked variant [s]");
  for (uint32_t nodes : {1u, 2u, 4u, 8u, 16u}) {
    const benchutil::HostTimer t;
    const double plain = run_once(nodes, false);
    const double forked = run_once(nodes, true);
    std::printf("%8u %18.4f %18.4f\n", nodes, plain, forked);
    std::fflush(stdout);
    json.add({.name = "scaling/nodes=" + std::to_string(nodes),
              .host_ns = t.ns(),
              .value = plain});
  }
  std::printf("\nshape checks: the plain protocol's epoch latency grows ~linearly with\n"
              "the member count (serial quiesce/ack collection at the initiator);\n"
              "the forked variant pays the same commit latency but the application\n"
              "itself resumes after the snapshot, so its *felt* cost stays flat.\n");

  json.write("scaling_nodes");
  metrics.write();
  return 0;
}
