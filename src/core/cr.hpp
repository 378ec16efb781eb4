// The checkpoint/restart module of an application process (paper fig. 1).
//
// Implements three distributed C/R protocols over the same hooks — the
// architectural point of the paper (section 3.2.2: coordinated and
// uncoordinated protocols run side by side in one framework):
//
//  * stop-and-sync (coordinated, blocking) — the protocol measured in
//    Figures 3 and 4. PREPARE flows through the daemons' lightweight group;
//    every process freezes its sends, exchanges flush markers on the data
//    channels, saves state + drained channel contents, acks; the initiator
//    commits the epoch and broadcasts RESUME.
//  * Chandy–Lamport (coordinated, non-blocking) — marker-triggered local
//    snapshots with per-channel recording of post-snapshot traffic; the
//    application is never frozen.
//  * uncoordinated (independent) — per-process timers, dependency metadata
//    piggybacked on every data frame; recovery lines are computed by the
//    daemons from stored metadata (ckpt/recovery.hpp).
//
// Coordination messages are opaque to the daemons that relay them, exactly
// as the paper specifies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/incremental.hpp"
#include "ckpt/recovery.hpp"
#include "daemon/job.hpp"
#include "mpi/proc.hpp"

namespace starfish::core {

class ApplicationProcess;

/// What CrModule::restore yields: the saved application-state blob (the
/// caller decodes VM state / native state from it) plus its provenance.
struct RestoredState {
  ckpt::ImageKind kind = ckpt::ImageKind::kPortable;
  uint16_t repr_code = 0;
  util::Bytes app_state;
};

class CrModule {
 public:
  explicit CrModule(ApplicationProcess& process);

  /// Starts protocol timers (after the process is configured):
  /// coordinated protocols tick on rank 0; uncoordinated ticks everywhere,
  /// staggered by rank.
  void start();

  /// User/system downcall: initiate a checkpoint now.
  void request_checkpoint();

  // --- wiring (invoked by the owning process) ---
  void on_coord(const util::Bytes& payload);
  void on_control_frame(const mpi::Frame& frame);
  void on_recv_tap(const mpi::Envelope& env);

  /// Loads checkpoint `epoch`, restores the channel state and dependency
  /// tracker, re-injects recorded in-transit messages, and returns the
  /// application-state blob. Fails on representation mismatch for native
  /// images (the homogeneous restriction).
  util::Result<RestoredState> restore(uint64_t epoch);

  ckpt::DependencyTracker& tracker() { return tracker_; }

  // --- stats (ablation A) ---
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t last_committed() const { return last_committed_; }
  sim::Duration blocked_time() const { return blocked_time_; }

 private:
  enum class CoordKind : uint8_t { kPrepare = 1, kAck = 2, kCommit = 3 };

  void send_coord(CoordKind kind, uint64_t epoch);
  void begin_stop_and_sync(uint64_t epoch);
  void maybe_capture_stop_and_sync();
  void begin_chandy_lamport(uint64_t epoch, bool initiator);
  void finish_chandy_lamport();
  void take_uncoordinated_checkpoint();
  /// Serializes {tracker, app state, channel state, recorded messages} into
  /// one exactly-sized image payload (the app state, or on a delta epoch its
  /// dirty pages, copied in once) and writes it to the store under `epoch`.
  void store_image(uint64_t epoch, util::BytesView app_state, util::BytesView channel_state,
                   std::span<const mpi::Envelope> recorded);
  void handle_ack(uint64_t epoch, uint32_t from);

  ApplicationProcess& process_;
  ckpt::DependencyTracker tracker_;

  uint64_t last_committed_ = 0;  ///< 0 = none
  uint64_t active_epoch_ = 0;    ///< 0 = idle

  // Stop-and-sync state.
  bool frozen_by_us_ = false;
  sim::Time freeze_started_ = 0;
  std::map<uint64_t, std::set<uint32_t>> markers_seen_;  ///< epoch -> peers
  bool sync_captured_ = false;

  // Initiator state (either protocol).
  bool initiating_ = false;
  std::set<uint32_t> acks_;

  // Chandy–Lamport state.
  bool cl_active_ = false;
  util::Bytes cl_app_state_;      ///< snapshot taken at marker/initiation
  util::Bytes cl_channel_state_;
  std::set<uint32_t> cl_markers_from_;
  std::vector<mpi::Envelope> cl_recorded_;

  // Incremental checkpointing state: the previous epoch's per-page
  // fingerprints (warm whenever have_prev_ is set). Delta epochs diff
  // against them alone, so the previous state itself is not kept.
  ckpt::PageHashCache page_cache_;
  uint64_t prev_epoch_ = 0;
  bool have_prev_ = false;

  // Stats.
  uint64_t checkpoints_taken_ = 0;
  sim::Duration blocked_time_ = 0;
};

}  // namespace starfish::core
