// User-level context switching for fibers.
//
// glibc's swapcontext makes a sigprocmask *syscall* on every switch (~230ns
// on this hardware); the engine's dominant block/wake/resume cycle pays it
// twice per hop. Simulation fibers never care about the signal mask, so on
// x86-64 we switch contexts in user space (boost.fcontext-style): save the
// SysV callee-saved registers plus mxcsr/x87 control word on the old stack,
// swap stack pointers, restore. ~10ns per switch, no kernel entry.
//
// The platform alone picks the path. The ucontext path
// (STARFISH_FAST_CONTEXT == 0) serves non-x86-64 builds and ASan builds (the
// sanitizer intercepts swapcontext to track stack switches but cannot see a
// custom switch). Both paths run the same engine code and must replay the
// same goldens (engine_golden_test runs in the default tree and in the ASan
// tree of scripts/asan_ctest.sh).
#pragma once

#if defined(__x86_64__)
#if defined(__SANITIZE_ADDRESS__)
#define STARFISH_FAST_CONTEXT 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STARFISH_FAST_CONTEXT 0
#else
#define STARFISH_FAST_CONTEXT 1
#endif
#else
#define STARFISH_FAST_CONTEXT 1
#endif
#else
#define STARFISH_FAST_CONTEXT 0
#endif

#if STARFISH_FAST_CONTEXT

#include <cstdint>

extern "C" {
/// Saves the callee-saved machine state on the current stack, publishes the
/// resulting stack pointer through *save_sp, switches to load_sp and
/// restores the state found there. Defined in context.cpp (assembly).
void starfish_ctx_swap(void** save_sp, void* load_sp);
}

namespace starfish::sim {

/// Lays out an initial switch frame at the top of a fresh stack so that the
/// first starfish_ctx_swap into the returned pointer calls entry(arg) with a
/// correctly aligned stack. entry must never return (it must swap away).
void* ctx_make(void* stack_top, void (*entry)(void*), void* arg);

}  // namespace starfish::sim

#endif  // STARFISH_FAST_CONTEXT
