#pragma once

/// \file simd.hpp
/// The docking kernels are plain scalar loops (DESIGN.md §13). This header
/// exists only for two info fields of the perfbench harness,
/// `simd_backend` and `lane_width`; nothing in the library uses it.

namespace scidock::simd {

constexpr const char* backend_name() { return "scalar"; }

struct f64x {
  static constexpr int kWidth = 1;
};

}  // namespace scidock::simd
