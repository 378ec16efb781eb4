// Internal: per-ISA table accessors, one per backend translation unit.
// Each returns a pointer to a static Ops table, or nullptr when the backend
// is not compiled into this binary (a target other than x86-64).
// dispatch.cpp combines these with the runtime CPU probe; nothing else may
// call them.
#pragma once

#include "util/simd/simd.hpp"

namespace starfish::util::simd {

const Ops* scalar_ops();
const Ops* avx2_ops();
const Ops* avx512_ops();

}  // namespace starfish::util::simd
