#include "vm/interp.hpp"

#include <utility>

namespace starfish::vm {

// The fast loop is direct-threaded: each op body ends by fetching the next
// instruction and jumping through a label table (the GNU label-address
// extension, which GCC and Clang, the only supported compilers, provide).

namespace {

inline bool fast_compare(Op op, double a, double b) {
  switch (op) {
    case Op::kEq: return a == b;
    case Op::kNe: return a != b;
    case Op::kLt: return a < b;
    case Op::kLe: return a <= b;
    case Op::kGt: return a > b;
    default: return a >= b;  // kGe — peephole only emits compare ops
  }
}

inline int64_t fast_int_arith(Op op, int64_t a, int64_t b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    default: return a * b;  // kMul — peephole only emits add/sub/mul
  }
}

}  // namespace

Interpreter::Interpreter(const Program& program, sim::Machine machine,
                         Dispatch dispatch)
    : program_(program),
      machine_(std::move(machine)),
      dispatch_(dispatch),
      // wrap_to_word is "truncate to int32" for any word under 8 bytes, so
      // the shift pair is 32 there and the identity (0) on 64-bit machines.
      wrap_shift_(machine_.word_bytes >= 8 ? 0u : 32u) {
  if (dispatch_ != Dispatch::kChecked) {
    facts_ = analyze(program_);
    prepared_ = prepare_program(program_, facts_, machine_,
                                dispatch_ == Dispatch::kFast);
    if (!prepared_.any_fast) dispatch_ = Dispatch::kChecked;
  }
}

void Interpreter::start(const std::string& entry) {
  state_ = VmState{};
  halted_ = false;
  host_trap_.clear();
  state_fast_ok_ = true;
  const int fn = program_.function_index(entry);
  if (fn < 0) {
    halted_ = true;
    return;
  }
  Frame frame;
  frame.function = static_cast<uint32_t>(fn);
  frame.pc = 0;
  frame.locals.assign(program_.functions[static_cast<size_t>(fn)].n_locals, Value::unit());
  state_.frames.push_back(std::move(frame));
}

Value Interpreter::pop_value() {
  if (state_.stack.empty()) {
    host_trap_ = "host pop on empty stack";
    return Value::unit();
  }
  Value v = state_.stack.back();
  state_.stack.pop_back();
  return v;
}

void Interpreter::push_value(Value v) { state_.stack.push_back(v); }

void Interpreter::set_state(VmState s) {
  state_ = std::move(s);
  halted_ = false;
  host_trap_.clear();
  state_fast_ok_ = dispatch_ != Dispatch::kChecked && restored_state_fast_ok();
}

// The verifier's depth facts hold for states *this interpreter* produced,
// but set_state() accepts arbitrary images (a corrupt checkpoint, a
// hand-built test state). Vet the restored state against the facts before
// letting the fast loop elide checks on it: every frame must sit in an
// analyzed function at a reachable pc with the right locals count, and the
// facts' stack depths must add up to the actual operand stack (each
// non-top frame is parked after a call, so it contributes depth-at-pc
// minus the callee result that is not there yet). Anything inconsistent
// runs on the checked loop, which re-validates per instruction.
bool Interpreter::restored_state_fast_ok() const {
  size_t expected = 0;
  for (size_t i = 0; i < state_.frames.size(); ++i) {
    const Frame& fr = state_.frames[i];
    if (fr.function >= program_.functions.size()) return false;
    const Function& fn = program_.functions[fr.function];
    const FunctionFacts& ff = facts_.functions[fr.function];
    if (!ff.analyzed) return false;
    if (fr.locals.size() != fn.n_locals) return false;
    if (fr.pc >= ff.depth.size()) return false;
    const int32_t dep = ff.depth[fr.pc];
    if (dep < 0) return false;  // pc the dataflow proved unreachable
    if (i + 1 == state_.frames.size()) {
      expected += static_cast<size_t>(dep);
    } else {
      if (dep < 1) return false;
      expected += static_cast<size_t>(dep) - 1;
    }
  }
  return expected == state_.stack.size();
}

void Interpreter::set_obs(obs::Hub* hub) {
  if (hub == nullptr) {
    obs_retired_ = nullptr;
    obs_fast_ = nullptr;
    obs_checked_ = nullptr;
    obs_fused_ = nullptr;
    return;
  }
  obs_retired_ = &hub->metrics.counter("sim.vm.instructions_retired");
  obs_fast_ = &hub->metrics.counter("sim.vm.dispatch_fast");
  obs_checked_ = &hub->metrics.counter("sim.vm.dispatch_checked");
  obs_fused_ = &hub->metrics.counter("sim.vm.fused_hits");
}

void Interpreter::note_fast(uint64_t n, uint64_t fused) {
  if (n == 0 && fused == 0) return;
  stats_.fast_instrs += n;
  stats_.fused_hits += fused;
  if (obs_retired_ != nullptr) {
    obs_retired_->add(n);
    obs_fast_->add(n);
    if (fused != 0) obs_fused_->add(fused);
  }
}

void Interpreter::note_checked(uint64_t n) {
  if (n == 0) return;
  stats_.checked_instrs += n;
  if (obs_retired_ != nullptr) {
    obs_retired_->add(n);
    obs_checked_->add(n);
  }
}

RunResult Interpreter::trap(std::string why) {
  halted_ = true;
  RunResult r;
  r.status = RunStatus::kTrap;
  r.trap = std::move(why);
  return r;
}

bool Interpreter::pop2_ints(int64_t& a, int64_t& b, RunResult& out) {
  if (state_.stack.size() < 2) {
    out = trap("stack underflow");
    return false;
  }
  Value vb = pop_or_unit(), va = pop_or_unit();
  if (va.tag != Tag::kInt || vb.tag != Tag::kInt) {
    out = trap("type error: expected two ints");
    return false;
  }
  a = va.i;
  b = vb.i;
  return true;
}

bool Interpreter::pop2_floats(double& a, double& b, RunResult& out) {
  if (state_.stack.size() < 2) {
    out = trap("stack underflow");
    return false;
  }
  Value vb = pop_or_unit(), va = pop_or_unit();
  if (va.tag != Tag::kFloat || vb.tag != Tag::kFloat) {
    out = trap("type error: expected two floats");
    return false;
  }
  a = va.f;
  b = vb.f;
  return true;
}

RunResult Interpreter::run(uint64_t max_steps) {
  if (halted_) {
    RunResult out;
    out.status = RunStatus::kHalted;
    return out;
  }
  if (!host_trap_.empty()) {
    std::string why = std::move(host_trap_);
    host_trap_.clear();
    return trap(std::move(why));
  }
  if (dispatch_ != Dispatch::kChecked && state_fast_ok_) return run_fast(max_steps);
  return run_checked(max_steps);
}

// ------------------------------------------------------- checked loop ----
//
// The original interpreter, loop body factored into step_checked_one() so
// the fast loop's escape hatch executes the exact same code (and therefore
// produces the exact same traps, stack effects and step accounting).

RunResult Interpreter::run_checked(uint64_t max_steps) {
  RunResult out;
  out.status = RunStatus::kRunning;
  const uint64_t before = state_.steps_executed;
  for (uint64_t step = 0; step < max_steps; ++step) {
    if (state_.frames.empty()) {
      halted_ = true;
      out.status = RunStatus::kHalted;
      break;
    }
    if (step_checked_one(out) != StepOutcome::kContinue) break;
  }
  note_checked(state_.steps_executed - before);
  return out;
}

Interpreter::StepOutcome Interpreter::step_checked_one(RunResult& out) {
  Frame& frame = state_.frames.back();
  if (frame.function >= program_.functions.size()) {
    out = trap("bad function index");
    return StepOutcome::kTrap;
  }
  const Function& fn = program_.functions[frame.function];
  if (frame.pc >= fn.code.size()) {
    out = trap("pc out of range in " + fn.name);
    return StepOutcome::kTrap;
  }
  const Instr& instr = fn.code[frame.pc];
  ++frame.pc;
  ++state_.steps_executed;

  switch (instr.op) {
    case Op::kNop: break;
    case Op::kPushInt: push_value(Value::integer(wrap(instr.imm_i))); break;
    case Op::kPushFloat: push_value(Value::real(instr.imm_f)); break;
    case Op::kPushBool: push_value(Value::boolean(instr.imm_i != 0)); break;
    case Op::kPushUnit: push_value(Value::unit()); break;
    case Op::kPop:
      if (state_.stack.empty()) {
        out = trap("pop on empty stack");
        return StepOutcome::kTrap;
      }
      state_.stack.pop_back();
      break;
    case Op::kDup:
      if (state_.stack.empty()) {
        out = trap("dup on empty stack");
        return StepOutcome::kTrap;
      }
      push_value(state_.stack.back());
      break;
    case Op::kSwap: {
      if (state_.stack.size() < 2) {
        out = trap("swap underflow");
        return StepOutcome::kTrap;
      }
      std::swap(state_.stack[state_.stack.size() - 1], state_.stack[state_.stack.size() - 2]);
      break;
    }
    case Op::kLoadLocal: {
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= frame.locals.size()) {
        out = trap("local index out of range");
        return StepOutcome::kTrap;
      }
      push_value(frame.locals[idx]);
      break;
    }
    case Op::kStoreLocal: {
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= frame.locals.size()) {
        out = trap("local index out of range");
        return StepOutcome::kTrap;
      }
      if (state_.stack.empty()) {
        out = trap("store_local underflow");
        return StepOutcome::kTrap;
      }
      frame.locals[idx] = pop_or_unit();
      break;
    }
    case Op::kLoadGlobal: {
      // Bound matches the verifier's structural prepass: a negative index
      // used to be cast to size_t and fed to resize(), throwing
      // std::length_error out of run() instead of trapping.
      if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
        out = trap("global index out of range");
        return StepOutcome::kTrap;
      }
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
      push_value(state_.globals[idx]);
      break;
    }
    case Op::kStoreGlobal: {
      if (instr.imm_i < 0 || instr.imm_i > 1'000'000) {
        out = trap("global index out of range");
        return StepOutcome::kTrap;
      }
      const auto idx = static_cast<size_t>(instr.imm_i);
      if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
      if (state_.stack.empty()) {
        out = trap("store_global underflow");
        return StepOutcome::kTrap;
      }
      state_.globals[idx] = pop_or_unit();
      break;
    }

    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod: {
      int64_t a, b;
      if (!pop2_ints(a, b, out)) return StepOutcome::kTrap;
      int64_t r = 0;
      switch (instr.op) {
        case Op::kAdd: r = a + b; break;
        case Op::kSub: r = a - b; break;
        case Op::kMul: r = a * b; break;
        case Op::kDiv:
          if (b == 0) {
            out = trap("division by zero");
            return StepOutcome::kTrap;
          }
          r = a / b;
          break;
        case Op::kMod:
          if (b == 0) {
            out = trap("modulo by zero");
            return StepOutcome::kTrap;
          }
          r = a % b;
          break;
        default: break;
      }
      push_value(Value::integer(wrap(r)));
      break;
    }
    case Op::kNeg: {
      Value v = pop_or_unit();
      if (v.tag == Tag::kInt) {
        push_value(Value::integer(wrap(-v.i)));
      } else if (v.tag == Tag::kFloat) {
        push_value(Value::real(-v.f));
      } else {
        out = trap("neg on non-number");
        return StepOutcome::kTrap;
      }
      break;
    }
    case Op::kFAdd: case Op::kFSub: case Op::kFMul: case Op::kFDiv: {
      double a, b;
      if (!pop2_floats(a, b, out)) return StepOutcome::kTrap;
      double r = 0;
      switch (instr.op) {
        case Op::kFAdd: r = a + b; break;
        case Op::kFSub: r = a - b; break;
        case Op::kFMul: r = a * b; break;
        case Op::kFDiv: r = a / b; break;
        default: break;
      }
      push_value(Value::real(r));
      break;
    }
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt: case Op::kGe: {
      if (state_.stack.size() < 2) {
        out = trap("compare underflow");
        return StepOutcome::kTrap;
      }
      Value vb = pop_or_unit(), va = pop_or_unit();
      double a, b;
      if (va.tag == Tag::kInt && vb.tag == Tag::kInt) {
        a = static_cast<double>(va.i);
        b = static_cast<double>(vb.i);
      } else if (va.tag == Tag::kFloat && vb.tag == Tag::kFloat) {
        a = va.f;
        b = vb.f;
      } else if (va.tag == Tag::kBool && vb.tag == Tag::kBool) {
        a = static_cast<double>(va.i);
        b = static_cast<double>(vb.i);
      } else {
        out = trap("compare type mismatch");
        return StepOutcome::kTrap;
      }
      bool r = false;
      switch (instr.op) {
        case Op::kEq: r = a == b; break;
        case Op::kNe: r = a != b; break;
        case Op::kLt: r = a < b; break;
        case Op::kLe: r = a <= b; break;
        case Op::kGt: r = a > b; break;
        case Op::kGe: r = a >= b; break;
        default: break;
      }
      push_value(Value::boolean(r));
      break;
    }
    case Op::kAnd: case Op::kOr: {
      int64_t a, b;
      if (!pop2_ints(a, b, out)) return StepOutcome::kTrap;
      push_value(Value::integer(instr.op == Op::kAnd ? (a & b) : (a | b)));
      break;
    }
    case Op::kNot: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kBool) {
        out = trap("not on non-bool");
        return StepOutcome::kTrap;
      }
      push_value(Value::boolean(v.i == 0));
      break;
    }
    case Op::kI2F: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kInt) {
        out = trap("i2f on non-int");
        return StepOutcome::kTrap;
      }
      push_value(Value::real(static_cast<double>(v.i)));
      break;
    }
    case Op::kF2I: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kFloat) {
        out = trap("f2i on non-float");
        return StepOutcome::kTrap;
      }
      push_value(Value::integer(wrap(static_cast<int64_t>(v.f))));
      break;
    }

    case Op::kJmp:
      frame.pc = static_cast<uint32_t>(instr.imm_i);
      break;
    case Op::kJmpIfFalse: {
      Value v = pop_or_unit();
      if (v.tag != Tag::kBool) {
        out = trap("jmp_if_false on non-bool");
        return StepOutcome::kTrap;
      }
      if (v.i == 0) frame.pc = static_cast<uint32_t>(instr.imm_i);
      break;
    }
    case Op::kCall: {
      const auto callee_idx = static_cast<size_t>(instr.imm_i);
      if (callee_idx >= program_.functions.size()) {
        out = trap("call: bad function");
        return StepOutcome::kTrap;
      }
      const Function& callee = program_.functions[callee_idx];
      if (state_.stack.size() < callee.n_args) {
        out = trap("call: missing args");
        return StepOutcome::kTrap;
      }
      Frame next;
      next.function = static_cast<uint32_t>(callee_idx);
      next.pc = 0;
      next.locals.assign(callee.n_locals, Value::unit());
      for (uint32_t a = callee.n_args; a > 0; --a) next.locals[a - 1] = pop_or_unit();
      state_.frames.push_back(std::move(next));
      break;
    }
    case Op::kRet: {
      Value v = state_.stack.empty() ? Value::unit() : pop_or_unit();
      state_.frames.pop_back();
      if (state_.frames.empty()) {
        halted_ = true;
        out.status = RunStatus::kHalted;
        return StepOutcome::kHalted;
      }
      push_value(v);
      break;
    }
    case Op::kHalt:
      halted_ = true;
      out.status = RunStatus::kHalted;
      return StepOutcome::kHalted;

    case Op::kNewArray: {
      Value len = pop_or_unit();
      if (len.tag != Tag::kInt || len.i < 0) {
        out = trap("new_array: bad length");
        return StepOutcome::kTrap;
      }
      HeapObject obj;
      obj.kind = HeapObject::Kind::kArray;
      obj.fields.assign(static_cast<size_t>(len.i), Value::unit());
      state_.heap.push_back(std::move(obj));
      push_value(Value::reference(static_cast<HeapIndex>(state_.heap.size() - 1)));
      break;
    }
    case Op::kNewBytes: {
      Value len = pop_or_unit();
      if (len.tag != Tag::kInt || len.i < 0) {
        out = trap("new_bytes: bad length");
        return StepOutcome::kTrap;
      }
      HeapObject obj;
      obj.kind = HeapObject::Kind::kBytes;
      obj.bytes.assign(static_cast<size_t>(len.i), std::byte{0});
      state_.heap.push_back(std::move(obj));
      push_value(Value::reference(static_cast<HeapIndex>(state_.heap.size() - 1)));
      break;
    }
    case Op::kALoad: {
      if (state_.stack.size() < 2) {
        out = trap("aload underflow");
        return StepOutcome::kTrap;
      }
      Value idx = pop_or_unit(), ref = pop_or_unit();
      if (ref.tag != Tag::kRef || idx.tag != Tag::kInt) {
        out = trap("aload: bad operands");
        return StepOutcome::kTrap;
      }
      if (ref.ref >= state_.heap.size()) {
        out = trap("aload: dangling ref");
        return StepOutcome::kTrap;
      }
      HeapObject& obj = state_.heap[ref.ref];
      if (obj.kind != HeapObject::Kind::kArray) {
        out = trap("aload: not an array");
        return StepOutcome::kTrap;
      }
      if (idx.i < 0 || static_cast<size_t>(idx.i) >= obj.fields.size()) {
        out = trap("aload: index out of bounds");
        return StepOutcome::kTrap;
      }
      push_value(obj.fields[static_cast<size_t>(idx.i)]);
      break;
    }
    case Op::kAStore: {
      if (state_.stack.size() < 3) {
        out = trap("astore underflow");
        return StepOutcome::kTrap;
      }
      Value val = pop_or_unit(), idx = pop_or_unit(), ref = pop_or_unit();
      if (ref.tag != Tag::kRef || idx.tag != Tag::kInt) {
        out = trap("astore: bad operands");
        return StepOutcome::kTrap;
      }
      if (ref.ref >= state_.heap.size()) {
        out = trap("astore: dangling ref");
        return StepOutcome::kTrap;
      }
      HeapObject& obj = state_.heap[ref.ref];
      if (obj.kind != HeapObject::Kind::kArray) {
        out = trap("astore: not an array");
        return StepOutcome::kTrap;
      }
      if (idx.i < 0 || static_cast<size_t>(idx.i) >= obj.fields.size()) {
        out = trap("astore: index out of bounds");
        return StepOutcome::kTrap;
      }
      obj.fields[static_cast<size_t>(idx.i)] = val;
      break;
    }
    case Op::kALen: {
      Value ref = pop_or_unit();
      if (ref.tag != Tag::kRef || ref.ref >= state_.heap.size()) {
        out = trap("alen: bad ref");
        return StepOutcome::kTrap;
      }
      const HeapObject& obj = state_.heap[ref.ref];
      const size_t n = obj.kind == HeapObject::Kind::kArray ? obj.fields.size()
                                                            : obj.bytes.size();
      push_value(Value::integer(static_cast<int64_t>(n)));
      break;
    }

    case Op::kSyscall:
      // Restartable syscalls: pc stays AT the syscall instruction (and the
      // operand stack untouched) until the host calls complete_syscall().
      // A checkpoint taken while the process is blocked inside a syscall
      // therefore captures a consistent "about to execute it" state, and a
      // restore simply re-executes the call (receives are replayed from
      // the saved channel state).
      --frame.pc;
      --state_.steps_executed;
      out.status = RunStatus::kSyscall;
      out.syscall = static_cast<Syscall>(instr.imm_i);
      return StepOutcome::kSyscall;
  }
  return StepOutcome::kContinue;
}

// ---------------------------------------------------------- fast loop ----
//
// Executes prepared code (vm/exec.hpp) with verifier-elided checks. The
// invariants that keep it bit-identical to the checked loop:
//  - pc and frames stay in ORIGINAL bytecode coordinates; a fused entry
//    advances pc/steps by its full component count, and the budget check
//    (`d->len > left`) guarantees a superinstruction never straddles a
//    run() boundary — if the budget would expire inside one, the remaining
//    components execute singly through the checked step instead.
//  - steps are accumulated in `fast_done` and flushed to
//    state_.steps_executed at every exit, so a checkpoint cut at any
//    kSyscall/kRunning boundary sees the same count the checked loop
//    produces.
//  - any entry the verifier could not prove runs through
//    step_checked_one(), i.e. the original code with original messages.
//  - int/bool compares convert through double exactly like the checked
//    loop (observable for |int| > 2^53), and div/mod keep their zero
//    guards; only proven underflow/type checks are gone.

RunResult Interpreter::run_fast(uint64_t max_steps) {
  RunResult out;
  out.status = RunStatus::kRunning;
  if (max_steps == 0) return out;  // checked loop returns kRunning here too

  std::vector<Value>& stack = state_.stack;
  std::vector<Frame>& frames = state_.frames;

  uint64_t left = max_steps;  // local countdown, flushed in batches
  uint64_t fast_done = 0;     // fast instructions retired since last flush
  uint64_t fused_done = 0;    // superinstructions among them
  Frame* fr = nullptr;
  Value* locals = nullptr;
  const DecodedInstr* code = nullptr;
  size_t code_size = 0;
  size_t pc = 0;
  const DecodedInstr* d = nullptr;

  // Indexed by XOp; order must match vm/exec.hpp exactly.
  static const void* kLabels[] = {
      &&op_Nop, &&op_PushInt, &&op_PushFloat, &&op_PushBool, &&op_PushUnit,
      &&op_Pop, &&op_Dup, &&op_Swap,
      &&op_LoadLocal, &&op_StoreLocal, &&op_LoadGlobal, &&op_StoreGlobal,
      &&op_Add, &&op_Sub, &&op_Mul, &&op_Div, &&op_Mod, &&op_Neg,
      &&op_FAdd, &&op_FSub, &&op_FMul, &&op_FDiv,
      &&op_Eq, &&op_Ne, &&op_Lt, &&op_Le, &&op_Gt, &&op_Ge,
      &&op_And, &&op_Or, &&op_Not,
      &&op_I2F, &&op_F2I,
      &&op_Jmp, &&op_JmpIfFalse, &&op_Call, &&op_Ret, &&op_Halt,
      &&op_Checked,  // kNewArray: heap ops always run checked
      &&op_Checked,  // kALoad
      &&op_Checked,  // kAStore
      &&op_Checked,  // kALen
      &&op_Checked,  // kNewBytes
      &&op_Syscall,
      &&op_Checked,
      &&op_FusedIncLocal, &&op_FusedCmpBr, &&op_FusedLoadCmpBr,
      &&op_FusedLoadLoadArith, &&op_FusedLoadLoadArithSt,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kXOpCount,
                "dispatch table out of sync with XOp");

// Fetch/decode: budget first (the checked loop's for-condition), then the
// pc bounds check the fast loop keeps.
#define VM_FETCH()                                      \
  do {                                                  \
    if (left == 0) goto budget_out;                     \
    if (pc >= code_size) goto pc_oob;                   \
    d = &code[pc];                                      \
    if (d->len > left) goto partial_fused;              \
    left -= d->len;                                     \
    fast_done += d->len;                                \
    pc += d->len;                                       \
  } while (0)

// Flush batched step accounting to the canonical state. Does not touch
// fr->pc — exits that need it write it explicitly first.
#define VM_FLUSH_STEPS()                \
  do {                                  \
    state_.steps_executed += fast_done; \
    note_fast(fast_done, fused_done);   \
    fast_done = 0;                      \
    fused_done = 0;                     \
  } while (0)

#define VM_TRAP_EXIT(msg)                 \
  do {                                    \
    fr->pc = static_cast<uint32_t>(pc);   \
    VM_FLUSH_STEPS();                     \
    out = trap(msg);                      \
    return out;                           \
  } while (0)

#define VM_OP(name) op_##name:
#define VM_NEXT()                                        \
  do {                                                   \
    VM_FETCH();                                          \
    goto* kLabels[static_cast<size_t>(d->op)];           \
  } while (0)

load_frame:
  if (frames.empty()) {
    VM_FLUSH_STEPS();
    halted_ = true;
    out.status = RunStatus::kHalted;
    return out;
  }
  fr = &frames.back();
  if (fr->function >= program_.functions.size()) {
    VM_FLUSH_STEPS();
    return trap("bad function index");
  }
  {
    const PreparedFunction& pf = prepared_.functions[fr->function];
    code = pf.code.data();
    code_size = pf.code.size();
    // Reserve-backed operand stack: one capacity check per frame entry
    // instead of a growth check per push.
    if (stack.capacity() - stack.size() < pf.max_stack) {
      stack.reserve(stack.size() + pf.max_stack);
    }
  }
  locals = fr->locals.data();
  pc = fr->pc;

  VM_NEXT();

  VM_OP(Nop)
    VM_NEXT();

  VM_OP(PushInt) {  // immediate pre-wrapped by prepare_program
    stack.push_back(Value::integer(d->imm.i));
    VM_NEXT();
  }
  VM_OP(PushFloat) {
    stack.push_back(Value::real(d->imm.f));
    VM_NEXT();
  }
  VM_OP(PushBool) {
    stack.push_back(Value::boolean(d->imm.i != 0));
    VM_NEXT();
  }
  VM_OP(PushUnit) {
    stack.push_back(Value::unit());
    VM_NEXT();
  }
  VM_OP(Pop) {
    stack.pop_back();
    VM_NEXT();
  }
  VM_OP(Dup) {
    const Value v = stack.back();
    stack.push_back(v);
    VM_NEXT();
  }
  VM_OP(Swap) {
    std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
    VM_NEXT();
  }
  VM_OP(LoadLocal) {
    stack.push_back(locals[static_cast<size_t>(d->imm.i)]);
    VM_NEXT();
  }
  VM_OP(StoreLocal) {
    locals[static_cast<size_t>(d->imm.i)] = stack.back();
    stack.pop_back();
    VM_NEXT();
  }
  VM_OP(LoadGlobal) {
    const auto idx = static_cast<size_t>(d->imm.i);
    if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
    stack.push_back(state_.globals[idx]);
    VM_NEXT();
  }
  VM_OP(StoreGlobal) {
    const auto idx = static_cast<size_t>(d->imm.i);
    if (idx >= state_.globals.size()) state_.globals.resize(idx + 1, Value::unit());
    state_.globals[idx] = stack.back();
    stack.pop_back();
    VM_NEXT();
  }

  VM_OP(Add) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    stack.back() = Value::integer(wrap(stack.back().i + b));
    VM_NEXT();
  }
  VM_OP(Sub) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    stack.back() = Value::integer(wrap(stack.back().i - b));
    VM_NEXT();
  }
  VM_OP(Mul) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    stack.back() = Value::integer(wrap(stack.back().i * b));
    VM_NEXT();
  }
  VM_OP(Div) {
    // Both operands come off before the zero check, exactly like the
    // checked pop2_ints path, so a trapped state is byte-identical.
    const int64_t b = stack.back().i;
    stack.pop_back();
    const int64_t a = stack.back().i;
    stack.pop_back();
    if (b == 0) VM_TRAP_EXIT("division by zero");
    stack.push_back(Value::integer(wrap(a / b)));
    VM_NEXT();
  }
  VM_OP(Mod) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    const int64_t a = stack.back().i;
    stack.pop_back();
    if (b == 0) VM_TRAP_EXIT("modulo by zero");
    stack.push_back(Value::integer(wrap(a % b)));
    VM_NEXT();
  }
  VM_OP(Neg) {
    Value& t = stack.back();
    if (d->aux == static_cast<uint8_t>(Tag::kInt)) {
      t = Value::integer(wrap(-t.i));
    } else {
      t = Value::real(-t.f);
    }
    VM_NEXT();
  }
  VM_OP(FAdd) {
    const double b = stack.back().f;
    stack.pop_back();
    stack.back() = Value::real(stack.back().f + b);
    VM_NEXT();
  }
  VM_OP(FSub) {
    const double b = stack.back().f;
    stack.pop_back();
    stack.back() = Value::real(stack.back().f - b);
    VM_NEXT();
  }
  VM_OP(FMul) {
    const double b = stack.back().f;
    stack.pop_back();
    stack.back() = Value::real(stack.back().f * b);
    VM_NEXT();
  }
  VM_OP(FDiv) {
    const double b = stack.back().f;
    stack.pop_back();
    stack.back() = Value::real(stack.back().f / b);
    VM_NEXT();
  }

// Compares convert int/bool operands through double like the checked loop
// (d->aux is the verifier-proven shared operand tag).
#define VM_COMPARE(rel)                                         \
  {                                                             \
    const Value vb = stack.back();                              \
    stack.pop_back();                                           \
    const Value va = stack.back();                              \
    double a, b;                                                \
    if (d->aux == static_cast<uint8_t>(Tag::kFloat)) {          \
      a = va.f;                                                 \
      b = vb.f;                                                 \
    } else {                                                    \
      a = static_cast<double>(va.i);                            \
      b = static_cast<double>(vb.i);                            \
    }                                                           \
    stack.back() = Value::boolean(a rel b);                     \
    VM_NEXT();                                                  \
  }

  VM_OP(Eq) VM_COMPARE(==);
  VM_OP(Ne) VM_COMPARE(!=);
  VM_OP(Lt) VM_COMPARE(<);
  VM_OP(Le) VM_COMPARE(<=);
  VM_OP(Gt) VM_COMPARE(>);
  VM_OP(Ge) VM_COMPARE(>=);

  VM_OP(And) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    stack.back() = Value::integer(stack.back().i & b);  // not wrapped, as checked
    VM_NEXT();
  }
  VM_OP(Or) {
    const int64_t b = stack.back().i;
    stack.pop_back();
    stack.back() = Value::integer(stack.back().i | b);
    VM_NEXT();
  }
  VM_OP(Not) {
    Value& t = stack.back();
    t = Value::boolean(t.i == 0);
    VM_NEXT();
  }
  VM_OP(I2F) {
    Value& t = stack.back();
    t = Value::real(static_cast<double>(t.i));
    VM_NEXT();
  }
  VM_OP(F2I) {
    Value& t = stack.back();
    t = Value::integer(wrap(static_cast<int64_t>(t.f)));
    VM_NEXT();
  }

  VM_OP(Jmp) {
    pc = d->b;
    VM_NEXT();
  }
  VM_OP(JmpIfFalse) {
    const int64_t cond = stack.back().i;
    stack.pop_back();
    if (cond == 0) pc = d->b;
    VM_NEXT();
  }
  VM_OP(Call) {
    const auto callee_idx = static_cast<size_t>(d->imm.i);
    const Function& callee = program_.functions[callee_idx];
    Frame next;
    next.function = static_cast<uint32_t>(callee_idx);
    next.pc = 0;
    next.locals.assign(callee.n_locals, Value::unit());
    for (uint32_t a = callee.n_args; a > 0; --a) {
      next.locals[a - 1] = stack.back();
      stack.pop_back();
    }
    fr->pc = static_cast<uint32_t>(pc);  // caller resumes after the call
    frames.push_back(std::move(next));   // may invalidate fr
    goto load_frame;
  }
  VM_OP(Ret) {
    const Value v = stack.back();  // depth >= 1 proven by the verifier
    stack.pop_back();
    frames.pop_back();
    if (frames.empty()) {
      VM_FLUSH_STEPS();
      halted_ = true;
      out.status = RunStatus::kHalted;
      return out;
    }
    stack.push_back(v);
    goto load_frame;
  }
  VM_OP(Halt) {
    fr->pc = static_cast<uint32_t>(pc);
    VM_FLUSH_STEPS();
    halted_ = true;
    out.status = RunStatus::kHalted;
    return out;
  }

  VM_OP(Syscall) {
    // Restartable: rewind so pc stays AT the syscall and it is charged
    // only by complete_syscall() — the checked loop's un-increment.
    pc -= d->len;
    fast_done -= d->len;
    fr->pc = static_cast<uint32_t>(pc);
    VM_FLUSH_STEPS();
    out.status = RunStatus::kSyscall;
    out.syscall = static_cast<Syscall>(d->imm.i);
    return out;
  }

  VM_OP(Checked) {
    // Escape hatch: heap ops and anything the verifier could not prove run
    // through the original fully-checked single-step. Undo the speculative
    // fetch charge (the checked step does its own pc/step accounting), then
    // resynchronize the cached frame pointers, which the step may move.
    pc -= d->len;
    left += d->len;
    fast_done -= d->len;
    fr->pc = static_cast<uint32_t>(pc);
    VM_FLUSH_STEPS();
    {
      const uint64_t before = state_.steps_executed;
      const StepOutcome so = step_checked_one(out);
      note_checked(state_.steps_executed - before);
      if (so != StepOutcome::kContinue) return out;
      const uint64_t used = state_.steps_executed - before;
      left = left > used ? left - used : 0;
    }
    goto load_frame;
  }

  VM_OP(FusedIncLocal) {  // load_local b, push_int imm, add|sub, store_local c
    const int64_t a = locals[d->b].i;
    const int64_t r =
        d->aux == static_cast<uint8_t>(Op::kAdd) ? a + d->imm.i : a - d->imm.i;
    locals[d->c] = Value::integer(wrap(r));
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedCmpBr) {  // <compare aux>, jmp_if_false b (operand class in c)
    const Value vb = stack.back();
    stack.pop_back();
    const Value va = stack.back();
    stack.pop_back();
    double a, b;
    if (d->c == static_cast<uint32_t>(Tag::kFloat)) {
      a = va.f;
      b = vb.f;
    } else {
      a = static_cast<double>(va.i);
      b = static_cast<double>(vb.i);
    }
    if (!fast_compare(static_cast<Op>(d->aux), a, b)) pc = d->b;
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedLoadCmpBr) {  // load_local b, push_int imm, <cmp aux>, jif c
    const double a = static_cast<double>(locals[d->b].i);
    const double b = static_cast<double>(d->imm.i);
    if (!fast_compare(static_cast<Op>(d->aux), a, b)) pc = d->c;
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedLoadLoadArith) {  // load_local b, load_local c, <arith aux>
    const int64_t r =
        fast_int_arith(static_cast<Op>(d->aux), locals[d->b].i, locals[d->c].i);
    stack.push_back(Value::integer(wrap(r)));
    ++fused_done;
    VM_NEXT();
  }
  VM_OP(FusedLoadLoadArithSt) {  // ... , store_local imm
    const int64_t r =
        fast_int_arith(static_cast<Op>(d->aux), locals[d->b].i, locals[d->c].i);
    locals[static_cast<size_t>(d->imm.i)] = Value::integer(wrap(r));
    ++fused_done;
    VM_NEXT();
  }

budget_out:
  fr->pc = static_cast<uint32_t>(pc);
  VM_FLUSH_STEPS();
  out.status = RunStatus::kRunning;
  return out;

pc_oob:
  // Fetch-time trap, not charged as a step — same as the checked loop.
  fr->pc = static_cast<uint32_t>(pc);
  VM_FLUSH_STEPS();
  return trap("pc out of range in " + program_.functions[fr->function].name);

partial_fused:
  // The budget expires inside a superinstruction (1 <= left < d->len).
  // Retire the remaining budget one ORIGINAL instruction at a time through
  // the checked step so the pause lands on exactly the same instruction and
  // step count as the unfused interpreter. Fused components are
  // verifier-fast loads/pushes/arith/compares, so each step continues.
  fr->pc = static_cast<uint32_t>(pc);
  VM_FLUSH_STEPS();
  while (left > 0) {
    const uint64_t before = state_.steps_executed;
    const StepOutcome so = step_checked_one(out);
    note_checked(state_.steps_executed - before);
    if (so != StepOutcome::kContinue) return out;
    --left;
  }
  out.status = RunStatus::kRunning;
  return out;

#undef VM_FETCH
#undef VM_FLUSH_STEPS
#undef VM_TRAP_EXIT
#undef VM_OP
#undef VM_NEXT
#undef VM_COMPARE
}

}  // namespace starfish::vm
