#pragma once

/// \file simd.hpp
/// Portable fixed-width SIMD wrapper for the two lane-parallel docking
/// loops: AutoGrid's per-point channel sweep and Vina's neighbour blocks
/// (DESIGN.md §13).
///
/// One backend is selected at compile time and fixes the lane width for
/// the whole build:
///
///   AVX2   f64x = 4 lanes   (needs -mavx2 / -march=native)
///   SSE2   f64x = 2 lanes   (x86-64 baseline: the default)
///   NEON   f64x = 2 lanes   (aarch64)
///   scalar f64x = 4 lanes   (plain arrays + loops)
///
/// Defining SCIDOCK_SIMD_FORCE_SCALAR (cmake -DSCIDOCK_SIMD_SCALAR=ON)
/// overrides detection and builds the scalar backend on any host — the
/// reference implementation the kernel-equivalence suite compares the
/// native backend against, and the build CI runs as its own leg.
///
/// Semantics the kernels rely on:
///   - load/store are unaligned-safe; hot-loop buffers use
///     util::aligned_vector so accesses never straddle cache lines, but
///     tails and tests may hand in arbitrary pointers.
///   - there is no explicit fused multiply-add: kernels use +/* in the
///     scalar path's association, so on portable builds (no FMA
///     contraction) every lane is bit-identical to the scalar path.
///   - blend(mask, a, b) selects a where the mask lane is true; masks come
///     from less_than and are full-width lane masks, so NaN comparisons
///     are false exactly like the scalar operator.

#include <cstdint>

#if defined(SCIDOCK_SIMD_FORCE_SCALAR)
#define SCIDOCK_SIMD_SCALAR_BACKEND 1
#elif defined(__AVX2__)
#include <immintrin.h>
#define SCIDOCK_SIMD_AVX2_BACKEND 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define SCIDOCK_SIMD_SSE2_BACKEND 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SCIDOCK_SIMD_NEON_BACKEND 1
#else
#define SCIDOCK_SIMD_SCALAR_BACKEND 1
#endif

namespace scidock::simd {

/// Human-readable backend tag, reported by tests and BENCH_kernels.json so
/// a perf number is never read without knowing the lane width behind it.
constexpr const char* backend_name() {
#if defined(SCIDOCK_SIMD_AVX2_BACKEND)
  return "avx2";
#elif defined(SCIDOCK_SIMD_SSE2_BACKEND)
  return "sse2";
#elif defined(SCIDOCK_SIMD_NEON_BACKEND)
  return "neon";
#else
  return "scalar";
#endif
}

constexpr bool forced_scalar() {
#if defined(SCIDOCK_SIMD_FORCE_SCALAR)
  return true;
#else
  return false;
#endif
}

// =====================================================================
// f64x — native-width packed doubles
// =====================================================================

#if defined(SCIDOCK_SIMD_AVX2_BACKEND)

struct f64x {
  static constexpr int kWidth = 4;
  __m256d v;

  f64x() : v(_mm256_setzero_pd()) {}
  explicit f64x(double broadcast) : v(_mm256_set1_pd(broadcast)) {}
  explicit f64x(__m256d raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(_mm256_loadu_pd(p)); }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  f64x operator+(f64x o) const { return f64x(_mm256_add_pd(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(_mm256_sub_pd(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(_mm256_mul_pd(v, o.v)); }
  f64x& operator+=(f64x o) { v = _mm256_add_pd(v, o.v); return *this; }

  double lane(int i) const {
    alignas(32) double tmp[kWidth];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }
  double hsum() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

inline f64x min(f64x a, f64x b) { return f64x(_mm256_min_pd(a.v, b.v)); }
inline f64x less_than(f64x a, f64x b) {
  return f64x(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ));
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  return f64x(_mm256_blendv_pd(b.v, a.v, mask.v));
}

#elif defined(SCIDOCK_SIMD_SSE2_BACKEND)

struct f64x {
  static constexpr int kWidth = 2;
  __m128d v;

  f64x() : v(_mm_setzero_pd()) {}
  explicit f64x(double broadcast) : v(_mm_set1_pd(broadcast)) {}
  explicit f64x(__m128d raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(_mm_loadu_pd(p)); }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  f64x operator+(f64x o) const { return f64x(_mm_add_pd(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(_mm_sub_pd(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(_mm_mul_pd(v, o.v)); }
  f64x& operator+=(f64x o) { v = _mm_add_pd(v, o.v); return *this; }

  double lane(int i) const {
    alignas(16) double tmp[kWidth];
    _mm_store_pd(tmp, v);
    return tmp[i];
  }
  double hsum() const {
    return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
  }
};

inline f64x min(f64x a, f64x b) { return f64x(_mm_min_pd(a.v, b.v)); }
inline f64x less_than(f64x a, f64x b) { return f64x(_mm_cmplt_pd(a.v, b.v)); }
inline f64x blend(f64x mask, f64x a, f64x b) {
  // SSE2 has no blendv: (mask & a) | (~mask & b).
  return f64x(_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v)));
}

#elif defined(SCIDOCK_SIMD_NEON_BACKEND)

struct f64x {
  static constexpr int kWidth = 2;
  float64x2_t v;

  f64x() : v(vdupq_n_f64(0.0)) {}
  explicit f64x(double broadcast) : v(vdupq_n_f64(broadcast)) {}
  explicit f64x(float64x2_t raw) : v(raw) {}

  static f64x load(const double* p) { return f64x(vld1q_f64(p)); }
  void store(double* p) const { vst1q_f64(p, v); }

  f64x operator+(f64x o) const { return f64x(vaddq_f64(v, o.v)); }
  f64x operator-(f64x o) const { return f64x(vsubq_f64(v, o.v)); }
  f64x operator*(f64x o) const { return f64x(vmulq_f64(v, o.v)); }
  f64x& operator+=(f64x o) { v = vaddq_f64(v, o.v); return *this; }

  double lane(int i) const {
    double tmp[kWidth];
    vst1q_f64(tmp, v);
    return tmp[i];
  }
  double hsum() const { return vaddvq_f64(v); }
};

inline f64x min(f64x a, f64x b) { return f64x(vminq_f64(a.v, b.v)); }
inline f64x less_than(f64x a, f64x b) {
  return f64x(vreinterpretq_f64_u64(vcltq_f64(a.v, b.v)));
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  return f64x(vbslq_f64(vreinterpretq_u64_f64(mask.v), a.v, b.v));
}

#else  // scalar reference backend

struct f64x {
  // Width 4 on purpose: the batch layouts, tails and reduction trees the
  // wide backends exercise are reproduced exactly, just with plain loops.
  static constexpr int kWidth = 4;
  double v[kWidth];

  f64x() : v{0.0, 0.0, 0.0, 0.0} {}
  explicit f64x(double broadcast) {
    for (double& x : v) x = broadcast;
  }

  static f64x load(const double* p) {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  void store(double* p) const {
    for (int i = 0; i < kWidth; ++i) p[i] = v[i];
  }

  f64x operator+(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  f64x operator-(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  f64x operator*(f64x o) const {
    f64x r;
    for (int i = 0; i < kWidth; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  f64x& operator+=(f64x o) {
    for (int i = 0; i < kWidth; ++i) v[i] += o.v[i];
    return *this;
  }

  double lane(int i) const { return v[i]; }
  double hsum() const {
    // Pairwise like the wide backends: (l0 + l2) + (l1 + l3).
    return (v[0] + v[2]) + (v[1] + v[3]);
  }
};

namespace detail {
inline double mask_bits(bool b) {
  const std::uint64_t bits = b ? ~std::uint64_t{0} : 0;
  double d;
  __builtin_memcpy(&d, &bits, sizeof d);
  return d;
}
inline bool mask_lane(double d) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof bits);
  return bits != 0;
}
}  // namespace detail

inline f64x min(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline f64x less_than(f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = detail::mask_bits(a.v[i] < b.v[i]);
  return r;
}
inline f64x blend(f64x mask, f64x a, f64x b) {
  f64x r;
  for (int i = 0; i < f64x::kWidth; ++i)
    r.v[i] = detail::mask_lane(mask.v[i]) ? a.v[i] : b.v[i];
  return r;
}

#endif  // backend selection (f64x)

/// Truncate each lane toward zero into int32 slots (LUT bin indices; the
/// kernels guarantee non-negative in-range inputs).
inline void truncate_to_int(f64x x, std::int32_t* out) {
  alignas(64) double tmp[f64x::kWidth];
  x.store(tmp);
  for (int i = 0; i < f64x::kWidth; ++i)
    out[i] = static_cast<std::int32_t>(tmp[i]);
}

}  // namespace scidock::simd
