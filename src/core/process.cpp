#include "core/process.hpp"

#include <cassert>

#include "ckpt/image.hpp"
#include "vm/verify.hpp"
#include "util/log.hpp"

namespace starfish::core {

namespace {
constexpr const char* kLog = "proc";
}

// ------------------------------------------------------------ registry ----

void AppRegistry::register_vm(const std::string& name, const std::string& asm_source) {
  auto prog = vm::assemble(asm_source);
  if (!prog.ok()) {
    STARFISH_LOG(kError, "registry") << "assembly of '" << name
                                     << "' failed: " << prog.error().to_string();
    assert(false && "VM program failed to assemble");
    return;
  }
  // Reject structurally broken programs at registration time rather than
  // trapping mid-job.
  auto ok = vm::validate(prog.value());
  if (!ok.ok()) {
    STARFISH_LOG(kError, "registry") << "validation of '" << name
                                     << "' failed: " << ok.error().to_string();
    assert(false && "VM program failed validation");
    return;
  }
  vm_[name] = std::move(prog).take();
}

// ---------------------------------------------------------- AppContext ----

uint32_t AppContext::rank() const { return process_.rank(); }
uint32_t AppContext::size() const { return process_.nprocs(); }
mpi::Comm& AppContext::world() { return process_.world(); }
sim::Engine& AppContext::engine() { return process_.engine(); }
const std::vector<std::string>& AppContext::args() const { return process_.app_args(); }

void AppContext::print(const std::string& text) {
  daemon::LinkMsg msg;
  msg.kind = daemon::LinkKind::kOutput;
  msg.text = text;
  process_.send_uplink(std::move(msg));
}

void AppContext::compute(sim::Duration duration) {
  // Split long computations so suspend/checkpoint gates stay responsive.
  constexpr sim::Duration kChunk = sim::milliseconds(10);
  while (duration > 0) {
    const sim::Duration step = duration < kChunk ? duration : kChunk;
    process_.engine().advance(step);
    duration -= step;
    process_.gate_check();
  }
}

void AppContext::progress() { process_.gate_check(); }
void AppContext::request_checkpoint() { process_.cr().request_checkpoint(); }
void AppContext::spawn_ranks(uint32_t extra) {
  daemon::LinkMsg msg;
  msg.kind = daemon::LinkKind::kSpawnReq;
  msg.spawn_extra = extra;
  process_.send_uplink(std::move(msg));
}
void AppContext::set_view_handler(std::function<void(const std::vector<uint32_t>&)> fn) {
  process_.set_view_handler(std::move(fn));
}
void AppContext::set_state_capture(std::function<util::Bytes()> fn) {
  process_.set_state_capture(std::move(fn));
}
void AppContext::set_state_restore(std::function<void(const util::Bytes&)> fn) {
  process_.set_state_restore(std::move(fn));
}
bool AppContext::restored() const { return process_.restored_from_checkpoint(); }

// -------------------------------------------------- ApplicationProcess ----

ApplicationProcess::ApplicationProcess(net::Network& net, sim::Host& host,
                                       ckpt::CheckpointStore& store, const AppRegistry& registry,
                                       const daemon::LaunchRequest& request,
                                       std::function<void(const daemon::LinkMsg&)> uplink,
                                       ProcessOptions options)
    : net_(net),
      host_(host),
      store_(store),
      registry_(registry),
      request_(request),
      uplink_(std::move(uplink)),
      options_(options),
      inbox_(net.engine()),
      state_cv_(net.engine()) {
  proc_ = std::make_unique<mpi::Proc>(net, host, options_.data_transport, options_.mpi,
                                      options_.polling);
  cr_ = std::make_unique<CrModule>(*this);
  if (const vm::Program* prog = registry_.program(request_.job.binary)) {
    interp_ = std::make_unique<vm::Interpreter>(*prog, host.machine());
    interp_->set_obs(net.engine().obs());  // sim.vm.* dispatch counters
  }

  // Wire the modules together over the bus and the MPI control hooks.
  proc_->set_control_handler([this](const mpi::Frame& f) { cr_->on_control_frame(f); });
  proc_->set_recv_tap([this](const mpi::Envelope& e) { cr_->on_recv_tap(e); });
  if (request_.job.protocol == daemon::CrProtocol::kUncoordinated) {
    proc_->set_dependency_tracker(&cr_->tracker());
  }
  bus_.subscribe(EventKind::kCoord,
                 [this](const Event& e) { cr_->on_coord(e.link.payload); });
  bus_.subscribe(EventKind::kAppView, [this](const Event& e) {
    live_ranks_ = e.link.live_ranks;
    if (view_handler_) view_handler_(live_ranks_);
  });

  spawn_owned("group-handler", [this] { group_handler_loop(); });
  spawn_owned("app", [this] { app_main(); });

  // Announce the data-path address so the daemons can wire the world.
  daemon::LinkMsg ready;
  ready.kind = daemon::LinkKind::kReady;
  ready.vni_addr = proc_->addr();
  send_uplink(std::move(ready));
}

ApplicationProcess::~ApplicationProcess() { terminate(); }

void ApplicationProcess::send_uplink(daemon::LinkMsg msg) {
  if (uplink_) uplink_(msg);
}

void ApplicationProcess::deliver(const daemon::LinkMsg& msg) { inbox_.send(msg); }

void ApplicationProcess::terminate() {
  if (!alive_) return;
  alive_ = false;
  inbox_.close();
  // Kill every module fiber BEFORE the process object can be destroyed —
  // a surviving fiber would run against a dangling `this`.
  for (auto& f : owned_fibers_) engine().kill(f);
  owned_fibers_.clear();
  proc_->shutdown();
}

void ApplicationProcess::set_state_restore(std::function<void(const util::Bytes&)> fn) {
  // Native apps register the hook from inside their body; if a restore blob
  // is already pending (we ARE a restarted process), apply it immediately.
  if (have_pending_restore_) {
    fn(pending_restore_blob_);
    restored_ = true;
    have_pending_restore_ = false;
    pending_restore_blob_ = {};  // the hook took its copy; release the blob
  }
}

void ApplicationProcess::gate_check() {
  state_cv_.wait([this] { return !suspended_; });
}

// ------------------------------------------------------- group handler ----

void ApplicationProcess::group_handler_loop() {
  for (;;) {
    auto r = inbox_.recv();
    if (!r.ok()) return;
    handle_link(*r.value);
  }
}

void ApplicationProcess::handle_link(const daemon::LinkMsg& msg) {
  switch (msg.kind) {
    case daemon::LinkKind::kConfigure: {
      if (configured_ && msg.wiring_epoch <= config_epoch_) return;  // stale
      config_epoch_ = msg.wiring_epoch;
      proc_->configure_world(request_.rank, msg.world);
      live_ranks_.clear();
      for (uint32_t rk = 0; rk < msg.world.size(); ++rk) {
        if (msg.world[rk].host != sim::kInvalidHost) live_ranks_.push_back(rk);
      }
      if (!configured_) {
        world_.emplace(mpi::Comm::world(*proc_));
        configured_ = true;
        state_cv_.notify_all();
        return;
      }
      // Dynamic reconfiguration (MPI-2 spawn grew the world): refresh
      // COMM_WORLD in place and deliver a view upcall.
      world_->refresh_world();
      if (view_handler_) view_handler_(live_ranks_);
      return;
    }
    case daemon::LinkKind::kAppView: {
      Event e{EventKind::kAppView, msg, 0};
      bus_.post(e);
      return;
    }
    case daemon::LinkKind::kCoord: {
      Event e{EventKind::kCoord, msg, 0};
      bus_.post(e);
      return;
    }
    case daemon::LinkKind::kSuspend:
      suspended_ = true;
      proc_->freeze();
      return;
    case daemon::LinkKind::kResume:
      proc_->thaw();
      suspended_ = false;
      state_cv_.notify_all();
      return;
    case daemon::LinkKind::kTerminate:
      terminate();
      return;
    case daemon::LinkKind::kCheckpointNow:
      // System-initiated checkpoint (e.g. ahead of a migration). Rank 0
      // initiates for coordinated protocols; other ranks ignore it.
      if (rank() == 0 && configured_) cr_->request_checkpoint();
      return;
    default:
      return;
  }
}

// ----------------------------------------------------------- app module ----

util::Bytes ApplicationProcess::capture_app_state() {
  if (interp_) {
    return ckpt::portable_encode(host_.machine(), interp_->state()).payload;
  }
  return state_capture_ ? state_capture_() : util::Bytes{};
}

bool ApplicationProcess::apply_restore() {
  auto restored = cr_->restore(request_.restore_epoch);
  if (!restored.ok()) {
    fail_app("restore failed: " + restored.error().to_string());
    return false;
  }
  if (interp_) {
    ckpt::Image inner;
    inner.kind = restored.value().kind == ckpt::ImageKind::kNative
                     ? ckpt::ImageKind::kPortable  // same encoding; repr was verified
                     : restored.value().kind;
    inner.repr_code = restored.value().repr_code;
    inner.payload = std::move(restored.value().app_state);
    auto state = ckpt::portable_decode(inner, host_.machine());
    if (!state.ok()) {
      fail_app("VM state conversion failed: " + state.error().to_string());
      return false;
    }
    interp_->set_state(std::move(state).take());
    restored_ = true;
    STARFISH_LOG(kDebug, kLog) << request_.job.name << " rank " << rank()
                               << " restored VM state from epoch " << request_.restore_epoch;
    return true;
  }
  // Native app: stash the blob; the app body claims it via its restore hook.
  pending_restore_blob_ = std::move(restored.value().app_state);
  have_pending_restore_ = true;
  restored_ = true;
  return true;
}

void ApplicationProcess::fail_app(const std::string& reason) {
  if (done_) return;
  done_ = true;
  daemon::LinkMsg msg;
  msg.kind = daemon::LinkKind::kDone;
  msg.ok = false;
  msg.text = reason;
  send_uplink(std::move(msg));
}

void ApplicationProcess::app_main() {
  // Wait for the world wiring (the kConfigure message).
  state_cv_.wait([this] { return configured_; });

  if (request_.restore_epoch != daemon::kNoRestore) {
    if (!apply_restore()) return;
  }
  cr_->start();

  const vm::Program* program = registry_.program(request_.job.binary);
  const NativeAppFn* native = registry_.native(request_.job.binary);
  if (program != nullptr) {
    run_vm_app(*program);
  } else if (native != nullptr) {
    run_native_app(*native);
  } else {
    fail_app("unknown binary '" + request_.job.binary + "'");
    return;
  }
}

void ApplicationProcess::run_native_app(const NativeAppFn& fn) {
  AppContext ctx(*this);
  // The body's hooks capture its locals by reference, so none may outlive
  // it: a later checkpoint wave or view change would call into a dead
  // frame. A finished rank captures an empty state.
  struct DropHooks {
    ApplicationProcess& process;
    ~DropHooks() {
      process.state_capture_ = nullptr;
      process.view_handler_ = nullptr;
    }
  } drop_hooks{*this};
  try {
    fn(ctx);
  } catch (const sim::FiberKilled&) {
    throw;
  } catch (const std::exception& e) {
    fail_app(std::string("exception: ") + e.what());
    return;
  }
  done_ = true;
  daemon::LinkMsg msg;
  msg.kind = daemon::LinkKind::kDone;
  msg.ok = true;
  send_uplink(std::move(msg));
}

void ApplicationProcess::run_vm_app(const vm::Program&) {
  // A restored image can hold a VM that never began executing: the wiring
  // message and the checkpoint freeze can land in the same instant, so the
  // epoch captures the interpreter before start() ran. Resuming such an
  // image means starting from the entry point — running it as-is would
  // report an instant (bogus) completion.
  const bool never_started =
      interp_->state().frames.empty() && interp_->state().steps_executed == 0;
  if (!restored_ || never_started) interp_->start("main");
  for (;;) {
    gate_check();
    const uint64_t before = interp_->state().steps_executed;
    auto r = interp_->run(options_.vm_slice);
    const uint64_t executed = interp_->state().steps_executed - before;
    if (executed > 0) {
      engine().advance(options_.vm_step_cost * static_cast<sim::Duration>(executed));
    }
    switch (r.status) {
      case vm::RunStatus::kHalted: {
        done_ = true;
        daemon::LinkMsg msg;
        msg.kind = daemon::LinkKind::kDone;
        msg.ok = true;
        send_uplink(std::move(msg));
        return;
      }
      case vm::RunStatus::kTrap:
        fail_app("vm trap: " + r.trap);
        return;
      case vm::RunStatus::kSyscall:
        service_syscall(*interp_, r.syscall);
        break;
      case vm::RunStatus::kRunning:
        break;
    }
  }
}

void ApplicationProcess::service_syscall(vm::Interpreter& interp, vm::Syscall syscall) {
  // Restartability discipline: for syscalls that may block (and so may be
  // captured mid-operation by a checkpoint), arguments are *peeked* and the
  // stack/pc only mutate at completion. A restored image whose pc points at
  // the syscall simply re-executes it against the replayed channel state.
  using vm::Syscall;
  using vm::Tag;
  using vm::Value;
  // Arity precheck: every argument a syscall consumes must actually be on
  // the operand stack. Peeking past the end yields unit — which for
  // recv_from would silently turn an underflow into an any-source receive
  // that can block forever — and popping past the end is a protocol
  // violation the interpreter reports as a trap. Fail loudly instead.
  const auto arity = [](Syscall s) -> size_t {
    switch (s) {
      case Syscall::kPrint:
      case Syscall::kRecvFrom:
      case Syscall::kSleepMs:
      case Syscall::kSpin:
      case Syscall::kAllreduceSum:
        return 1;
      case Syscall::kSendTo:
        return 2;
      default:
        return 0;
    }
  };
  if (interp.stack_depth() < arity(syscall)) {
    fail_app("syscall operand underflow");
    throw sim::FiberKilled{};
  }
  switch (syscall) {
    case Syscall::kPrint: {
      Value v = interp.pop_value();
      interp.complete_syscall();
      daemon::LinkMsg msg;
      msg.kind = daemon::LinkKind::kOutput;
      msg.text = v.to_string();
      send_uplink(std::move(msg));
      return;
    }
    case Syscall::kRank:
      interp.push_value(Value::integer(rank()));
      interp.complete_syscall();
      return;
    case Syscall::kWorldSize:
      interp.push_value(Value::integer(nprocs()));
      interp.complete_syscall();
      return;
    case Syscall::kSendTo: {
      // Stack: ... dest value  (value on top).
      Value v = interp.peek_value(0);
      Value dest = interp.peek_value(1);
      if (dest.tag != Tag::kInt || dest.i < 0 || dest.i >= static_cast<int64_t>(nprocs())) {
        fail_app("send_to: bad destination rank");
        throw sim::FiberKilled{};  // unwind the app fiber cleanly
      }
      util::Bytes data;
      util::Writer w(data);
      w.u8(static_cast<uint8_t>(v.tag));
      w.i64(v.i);
      w.f64(v.f);
      world().send(static_cast<int>(dest.i), 0, std::move(data));  // may block
      (void)interp.pop_value();
      (void)interp.pop_value();
      interp.complete_syscall();
      return;
    }
    case Syscall::kRecvFrom: {
      Value src = interp.peek_value(0);
      const int from = (src.tag == Tag::kInt && src.i >= 0) ? static_cast<int>(src.i)
                                                            : mpi::kAnySource;
      util::Bytes data = world().recv(from, 0);  // may block indefinitely
      util::Reader r(util::as_bytes_view(data));
      Value v;
      v.tag = static_cast<Tag>(r.u8().value_or(0));
      v.i = r.i64().value_or(0);
      v.f = r.f64().value_or(0.0);
      (void)interp.pop_value();
      interp.push_value(v);
      interp.complete_syscall();
      return;
    }
    case Syscall::kCheckpoint:
      // Complete first: the checkpoint must capture the post-downcall state,
      // otherwise a restore would re-trigger the same checkpoint forever.
      interp.push_value(Value::unit());
      interp.complete_syscall();
      cr_->request_checkpoint();
      return;
    case Syscall::kSleepMs: {
      Value n = interp.peek_value(0);
      if (n.tag == Tag::kInt && n.i > 0) engine().sleep(sim::milliseconds(n.i));
      (void)interp.pop_value();
      interp.complete_syscall();
      return;
    }
    case Syscall::kSpin: {
      Value n = interp.peek_value(0);
      if (n.tag == Tag::kInt && n.i > 0) {
        engine().advance(options_.vm_step_cost * n.i);
      }
      (void)interp.pop_value();
      interp.complete_syscall();
      return;
    }
    case Syscall::kBarrier:
      world().barrier();  // blocks; restartable (re-executes after restore)
      interp.complete_syscall();
      return;
    case Syscall::kAllreduceSum: {
      Value v = interp.peek_value(0);
      if (v.tag != Tag::kInt) {
        fail_app("allreduce_sum: non-int operand");
        throw sim::FiberKilled{};
      }
      auto sum = world().allreduce(std::vector<int64_t>{v.i}, mpi::ReduceOp::kSum);
      (void)interp.pop_value();
      interp.push_value(Value::integer(sum.empty() ? 0 : sum[0]));
      interp.complete_syscall();
      return;
    }
  }
}

}  // namespace starfish::core
