// Size-bucketed recycling pool for guarded fiber stacks.
//
// Creating a fiber used to cost an mmap + mprotect, and destroying one a
// munmap — three syscalls per fiber, which dominates spawn-heavy workloads
// (daemon restarts, chaos churn, per-message handler fibers). The pool
// keeps released stacks mapped, guard page and all, so a recycled stack
// costs zero syscalls. Buckets are keyed by total mapping size; each bucket
// caps its free list and munmaps overflow, bounding retained memory.
//
// Lifetime: the pool is shared (std::shared_ptr) between the engine and
// every fiber it spawned, because a FiberPtr held by user code can outlive
// the engine; the last owner unmaps whatever is still cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace starfish::sim {

class StackPool {
 public:
  /// Free stacks retained per bucket before release() starts unmapping.
  static constexpr size_t kMaxFreePerBucket = 64;

  struct Allocation {
    void* base = nullptr;  ///< mapping start (guard page at the low end)
    size_t total = 0;      ///< mapping size including the guard page
    bool reused = false;   ///< true on a pool hit (no syscalls made)
  };

  StackPool() = default;
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Returns a mapping of `stack_bytes` usable stack plus one PROT_NONE
  /// guard page at the low end; recycled when the bucket has a free stack.
  /// Aborts on mmap failure (matches the engine's out-of-memory policy).
  Allocation acquire(size_t stack_bytes);

  /// Returns a mapping obtained from acquire(); cached or unmapped.
  void release(void* base, size_t total);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Stacks unmapped because their bucket was full.
  uint64_t retired() const { return retired_; }
  size_t cached() const;
  /// Stacks handed out and not yet released (every mapping is either out,
  /// cached or unmapped).
  size_t outstanding() const { return misses_ - retired_ - cached(); }

 private:
  struct Bucket {
    size_t total;             ///< mapping size this bucket serves
    std::vector<void*> free;  ///< mapped, guard-protected, ready to reuse
  };

  Bucket& bucket_for(size_t total);

  std::vector<Bucket> buckets_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t retired_ = 0;
};

}  // namespace starfish::sim
