// Runtime table selection: the CPU probe alone picks the level.
#include <atomic>

#include "util/simd/backends.hpp"
#include "util/simd/simd.hpp"

namespace starfish::util::simd {

namespace {

std::atomic<const Ops*> g_ops{nullptr};

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__)
    f.avx2 = __builtin_cpu_supports("avx2");
    f.avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#endif
    return f;
  }();
  return features;
}

const Ops* table(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return scalar_ops();
    case Isa::kAvx2: return cpu_features().avx2 ? avx2_ops() : nullptr;
    case Isa::kAvx512: return cpu_features().avx512 ? avx512_ops() : nullptr;
  }
  return nullptr;
}

std::vector<Isa> available() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (table(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

const Ops& ops() {
  const Ops* t = g_ops.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls select the same table.
    t = table(available().back());
    g_ops.store(t, std::memory_order_release);
  }
  return *t;
}

Isa level() { return ops().isa; }

const Ops& force(Isa isa) {
  const Ops* t = table(isa);
  if (t == nullptr) t = table(Isa::kScalar);
  g_ops.store(t, std::memory_order_release);
  return *t;
}

}  // namespace starfish::util::simd
