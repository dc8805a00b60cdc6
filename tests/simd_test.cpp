// Lane-op unit tests for the portable SIMD wrapper (util/simd.hpp). Runs
// under whichever backend the build selected — ci/check.sh runs the suite
// under both the native backend and the forced-scalar reference build
// (-DSCIDOCK_SIMD_SCALAR=ON), so every backend's load/store/arithmetic/
// mask semantics are pinned to the same expectations (ctest -L kernels).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace scidock::simd {
namespace {

constexpr int W = f64x::kWidth;

std::vector<double> lanes_of(f64x v) {
  std::vector<double> out(W);
  v.store(out.data());
  return out;
}

TEST(SimdBackend, NameAndWidthAreConsistent) {
  const std::string name = backend_name();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon" ||
              name == "scalar")
      << name;
  if (name == "avx2" || name == "scalar") {
    EXPECT_EQ(f64x::kWidth, 4);
  } else {
    EXPECT_EQ(f64x::kWidth, 2);
  }
  if (forced_scalar()) {
    EXPECT_EQ(name, "scalar");
  }
}

TEST(SimdF64, DefaultConstructorIsZero) {
  for (double l : lanes_of(f64x())) EXPECT_EQ(l, 0.0);
}

TEST(SimdF64, BroadcastFillsEveryLane) {
  for (double l : lanes_of(f64x(-3.25))) EXPECT_EQ(l, -3.25);
}

TEST(SimdF64, LoadStoreRoundTripsAlignedAndUnaligned) {
  // An aligned buffer with a deliberate odd offset exercises the
  // unaligned-tail contract: load/store must accept any pointer.
  util::aligned_vector<double> buf(2 * W + 1);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = 0.5 * static_cast<double>(i) - 3.0;
  }
  for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{W + 1}}) {
    const f64x v = f64x::load(buf.data() + off);
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(v.lane(l), buf[off + static_cast<std::size_t>(l)]) << off;
    }
    std::vector<double> out(static_cast<std::size_t>(W) + 1, -1.0);
    v.store(out.data() + 1);  // unaligned store target
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(out[static_cast<std::size_t>(l) + 1],
                buf[off + static_cast<std::size_t>(l)]);
    }
    EXPECT_EQ(out[0], -1.0);  // no write below the pointer
  }
}

TEST(SimdF64, LanewiseArithmeticMatchesScalar) {
  double a_in[4] = {1.5, -2.0, 0.25, 1e8};
  double b_in[4] = {-0.5, 4.0, 0.125, 3.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ((a + b).lane(l), a_in[l] + b_in[l]);
    EXPECT_EQ((a - b).lane(l), a_in[l] - b_in[l]);
    EXPECT_EQ((a * b).lane(l), a_in[l] * b_in[l]);
  }
  f64x acc = a;
  acc += b;
  for (int l = 0; l < W; ++l) EXPECT_EQ(acc.lane(l), a_in[l] + b_in[l]);
}

TEST(SimdF64, MinMaxSqrtPerLane) {
  double a_in[4] = {1.0, -2.0, 9.0, 0.0};
  double b_in[4] = {2.0, -3.0, 4.0, 0.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(min(a, b).lane(l), std::min(a_in[l], b_in[l]));
  }
}

TEST(SimdF64, HsumIsThePairwiseReduction) {
  double in[4] = {1.0, 10.0, 100.0, 1000.0};
  const f64x v = f64x::load(in);
  if (W == 2) {
    EXPECT_EQ(v.hsum(), in[0] + in[1]);
  } else {
    EXPECT_EQ(v.hsum(), (in[0] + in[2]) + (in[1] + in[3]));
  }
}

TEST(SimdF64, ComparisonMasksAreFullWidth) {
  double a_in[4] = {1.0, 5.0, 3.0, 3.0};
  double b_in[4] = {2.0, 4.0, 3.0, -1.0};
  const f64x lt = less_than(f64x::load(a_in), f64x::load(b_in));
  for (int l = 0; l < W; ++l) {
    std::uint64_t lt_bits = 0;
    const double lt_lane = lt.lane(l);
    std::memcpy(&lt_bits, &lt_lane, sizeof lt_bits);
    EXPECT_EQ(lt_bits, a_in[l] < b_in[l] ? ~std::uint64_t{0} : 0) << l;
  }
}

TEST(SimdF64, BlendSelectsPerLane) {
  double a_in[4] = {1.0, 2.0, 3.0, 4.0};
  double b_in[4] = {-1.0, -2.0, -3.0, -4.0};
  // Even lanes true (0 < 1), odd lanes false (1 < 1).
  double parity[4] = {0.0, 1.0, 0.0, 1.0};
  const f64x mask = less_than(f64x::load(parity), f64x(1.0));
  const f64x r = blend(mask, f64x::load(a_in), f64x::load(b_in));
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(r.lane(l), l % 2 == 0 ? a_in[l] : b_in[l]);
  }
}

TEST(SimdF64, NanPropagatesThroughArithmeticAndFailsComparisons) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double a_in[4] = {nan, 1.0, nan, 2.0};
  double b_in[4] = {1.0, nan, nan, 2.0};
  const f64x a = f64x::load(a_in);
  const f64x b = f64x::load(b_in);
  for (int l = 0; l < W; ++l) {
    const bool has_nan = std::isnan(a_in[l]) || std::isnan(b_in[l]);
    EXPECT_EQ(std::isnan((a + b).lane(l)), has_nan) << l;
    EXPECT_EQ(std::isnan((a * b).lane(l)), has_nan) << l;
  }
  // IEEE: every ordered comparison with a NaN operand is false, exactly
  // like the scalar operators — blend() must then take the fallback.
  const f64x lt = less_than(a, b);
  for (int l = 0; l < W; ++l) {
    if (std::isnan(a_in[l]) || std::isnan(b_in[l])) {
      std::uint64_t bits = 1;
      const double lane = lt.lane(l);
      std::memcpy(&bits, &lane, sizeof bits);
      EXPECT_EQ(bits, 0u) << l;
    }
  }
  const f64x fallback = blend(lt, f64x(1.0), f64x(-1.0));
  for (int l = 0; l < W; ++l) {
    if (std::isnan(a_in[l]) || std::isnan(b_in[l])) {
      EXPECT_EQ(fallback.lane(l), -1.0) << l;
    }
  }
}

TEST(SimdF64, TruncateToIntRoundsTowardZero) {
  double in[4] = {0.0, 2.9, 4095.999, 17.0};
  std::int32_t out[4] = {-1, -1, -1, -1};
  truncate_to_int(f64x::load(in), out);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(out[l], static_cast<std::int32_t>(in[l])) << l;
  }
}

}  // namespace
}  // namespace scidock::simd
