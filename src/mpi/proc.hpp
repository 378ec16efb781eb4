// Proc: the per-process MPI module (paper figure 1).
//
// Owns the process's VNI (fast data path) and implements point-to-point
// messaging: eager sends below a threshold, RTS/CTS rendezvous above it,
// posted-receive/unexpected-message matching with MPI wildcard semantics,
// and non-blocking operations. The dispatch fiber drains the VNI's receive
// queue (fed by the polling thread) and matches or stores every frame.
//
// Checkpoint/restart hooks:
//  * freeze()/thaw() quiesce the send side (stop-and-sync): new sends block,
//    matching to posted receives is suspended so the application cannot
//    observe messages logically "after" the checkpoint, and in-flight
//    rendezvous transfers are completed eagerly so channels can drain.
//  * capture_channel_state()/restore_channel_state() snapshot the unexpected
//    queue — the in-transit messages a coordinated checkpoint must save.
//  * set_control_handler() delivers flush/Chandy–Lamport markers to the C/R
//    module; set_recv_tap() lets Chandy–Lamport record post-snapshot channel
//    traffic; set_dependency_tracker() piggybacks checkpoint intervals for
//    the uncoordinated protocol.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/recovery.hpp"
#include "mpi/frame.hpp"
#include "mpi/types.hpp"
#include "net/vni.hpp"

namespace starfish::mpi {

/// A matched (or matchable) message as held by the MPI module.
struct Envelope {
  uint32_t comm = 0;
  uint32_t src = 0;
  int32_t tag = 0;
  uint32_t send_interval = 0;
  /// Shared with the wire buffer it arrived in (zero-copy); materialized
  /// into an owned util::Bytes only at application delivery.
  util::SharedBytes data;
  // Rendezvous bookkeeping while the payload has not arrived yet.
  bool is_rts = false;
  uint64_t rdv_seq = 0;
  uint64_t rdv_bytes = 0;
};

class Proc;

/// Internal: one posted receive awaiting a match (exposed at namespace scope
/// so Request's state can embed it).
struct PostedRecv {
  uint32_t comm = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  bool done = false;
  bool waiting_rdv = false;
  /// Freeze-path stand-in: the payload routes to the unexpected queue, not
  /// to an application receive (heap-owned by rdv_recvs_ until then).
  bool placeholder = false;
  Envelope result;
};

/// Handle for a non-blocking operation (MPI_Request).
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Proc;
  struct State;
  std::shared_ptr<State> state_;
};

class Proc {
 public:
  Proc(net::Network& net, sim::Host& host, net::TransportKind transport,
       ProcConfig config = {}, bool polling = true);
  ~Proc();
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  /// Installs (or replaces, after a dynamic reconfiguration) the world
  /// wiring: this process's rank and every rank's VNI address.
  void configure_world(uint32_t rank, std::vector<net::NetAddr> peers);

  uint32_t rank() const { return rank_; }
  uint32_t size() const { return static_cast<uint32_t>(peers_.size()); }
  /// Every rank's VNI address as last configured (this process's own
  /// deterministic view of the world — replica placement derives rank ->
  /// host from it).
  const std::vector<net::NetAddr>& peers() const { return peers_; }
  net::NetAddr addr() const { return vni_.addr(); }
  net::Vni& vni() { return vni_; }

  // --- point-to-point (world-rank addressed; Comm maps ranks) ---
  void send(uint32_t comm, uint32_t dst, int tag, util::Bytes data);
  util::Bytes recv(uint32_t comm, int src, int tag, RecvStatus* status = nullptr);
  Request isend(uint32_t comm, uint32_t dst, int tag, util::Bytes data);
  Request irecv(uint32_t comm, int src, int tag);
  /// Blocks until the request completes; returns the received payload for
  /// irecv requests (empty for isend).
  util::Bytes wait(Request& request, RecvStatus* status = nullptr);
  /// Non-blocking completion check.
  bool test(const Request& request) const;
  /// Blocks until every request completes (receive payloads discarded —
  /// use wait() per request when the data matters).
  void waitall(std::vector<Request>& requests);
  /// Blocks until at least one request completes; returns its index.
  size_t waitany(std::vector<Request>& requests);
  /// True if a matching message is already queued (MPI_Iprobe).
  bool iprobe(uint32_t comm, int src, int tag, RecvStatus* status = nullptr);

  // --- checkpoint/restart hooks ---
  void set_control_handler(std::function<void(const Frame&)> handler) {
    control_handler_ = std::move(handler);
  }
  void set_recv_tap(std::function<void(const Envelope&)> tap) { recv_tap_ = std::move(tap); }
  void set_dependency_tracker(ckpt::DependencyTracker* tracker) { tracker_ = tracker; }

  /// Quiesces the send side; returns when no send is in flight and every
  /// pending rendezvous transfer has drained.
  void freeze();
  void thaw();
  bool frozen() const { return frozen_; }

  /// Non-freezing snapshot prep (Chandy–Lamport): auto-CTS every announced
  /// rendezvous so its payload flows and can be recorded by the recv tap.
  void drain_for_snapshot();
  /// Blocks until no rendezvous receive is pending (all announced payloads
  /// have landed). Used before capturing channel state.
  void wait_rendezvous_drained();

  /// Sends a control marker to every other rank (bypasses freeze). The
  /// payload buffer is shared across all per-peer frames, not re-copied.
  void send_marker(FrameKind kind, uint32_t comm, util::SharedBytes payload = {});
  /// Sends a control marker to one rank.
  void send_marker_to(uint32_t dst, FrameKind kind, uint32_t comm,
                      util::SharedBytes payload = {});

  util::Bytes capture_channel_state() const;
  /// Replays a saved channel state plus recorded in-transit messages
  /// (Chandy–Lamport). Ordering: saved unexpected queue, then recordings,
  /// then whatever already arrived live while this process was restoring —
  /// live traffic logically follows everything the checkpoint saved.
  void restore_channel_state(util::BytesView blob, std::vector<Envelope> recorded = {});
  /// Test hook: queues one message as if it had arrived.
  void inject_unexpected(Envelope env);

  /// Permanently stops the dispatch machinery (end of the process).
  void shutdown();

  // --- stats ---
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_received() const { return messages_received_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  size_t unexpected_depth() const { return unexpected_.size(); }

 private:
  void dispatch_loop();
  void on_frame(Frame frame);
  void on_data_envelope(Envelope env);
  void complete_rendezvous_data(const Frame& frame);
  bool matches(const PostedRecv& p, const Envelope& e) const;
  std::optional<Envelope> take_unexpected(uint32_t comm, int src, int tag);
  /// Sends CTS for an RTS envelope and parks `posted` until the data lands.
  void begin_rendezvous_receive(PostedRecv& posted, const Envelope& rts);
  util::Bytes deliver(Envelope env, RecvStatus* status);
  void send_frame(uint32_t dst, Frame frame);
  void do_send(uint32_t comm, uint32_t dst, int tag, util::Bytes data);

  net::Network& net_;
  sim::Host& host_;
  ProcConfig config_;
  net::Vni vni_;
  sim::FiberPtr dispatch_fiber_;
  std::vector<sim::FiberPtr> helper_fibers_;  ///< unfinished isend progress fibers
  bool shut_down_ = false;

  uint32_t rank_ = 0;
  std::vector<net::NetAddr> peers_;

  // Matching state.
  std::deque<Envelope> unexpected_;
  std::vector<PostedRecv*> posted_;
  sim::CondVar completion_cv_;

  // Rendezvous state.
  uint64_t next_rdv_seq_ = 1;
  struct RdvSend {
    bool cts = false;
  };
  std::map<uint64_t, RdvSend*> rdv_sends_;                       ///< awaiting CTS
  std::map<std::pair<uint32_t, uint64_t>, PostedRecv*> rdv_recvs_;  ///< awaiting data

  // Quiesce state.
  bool frozen_ = false;
  uint32_t in_flight_sends_ = 0;
  sim::CondVar freeze_cv_;

  // C/R hooks.
  std::function<void(const Frame&)> control_handler_;
  std::function<void(const Envelope&)> recv_tap_;
  ckpt::DependencyTracker* tracker_ = nullptr;

  // Stats.
  uint64_t messages_sent_ = 0;
  uint64_t messages_received_ = 0;
  uint64_t bytes_sent_ = 0;

  friend class Request;
};

}  // namespace starfish::mpi
