#pragma once

/// \file energy_lut.hpp
/// Radial energy lookup tables for the docking hot path (DESIGN.md §10).
///
/// Real AutoGrid/AutoDock precompute pairwise-energy tables once per run
/// instead of calling `exp`/`pow`/`sqrt` per atom pair per evaluation.
/// This module does the same: every scoring term that depends only on the
/// pair of AutoDock types and the distance is tabulated over *squared*
/// distance — callers feed `distance_sq` straight from the neighbour list
/// or the intramolecular pair loop and never pay the `sqrt`.
///
/// Tables are uniform in r² on [0, cutoff²] with linear interpolation
/// (kEntries bins, kEntries + 1 samples). Charge-dependent factors cannot
/// be tabulated per pair (charges vary per atom), so the electrostatic and
/// desolvation channels store the type-independent radial part and the
/// caller multiplies its precomputed charge/solvation factors in.
///
/// Accuracy: with 4096 bins over 64 Å² the interpolation error against the
/// analytic path stays below 2e-3 kcal/mol absolute outside the clamped
/// repulsive wall and below 0.5% relative inside the wells — an order of
/// magnitude under the energy differences the GA/MC search acts on. The
/// kernel-equivalence suite (`ctest -L kernels`) enforces this bound.
///
/// Table sets are immutable after construction and shared process-wide by
/// weight vector (`shared()`), so per-activation model construction costs
/// one mutex-guarded lookup instead of a rebuild.

#include <cstdint>
#include <memory>
#include <vector>

#include "dock/scoring.hpp"
#include "mol/atom_typing.hpp"
#include "util/simd.hpp"

namespace scidock::dock {

namespace lut {

/// Table resolution shared by the AD4 and Vina sets. The domain ends at
/// the 8 Å interaction cutoff both engines use; beyond it the AD4 path
/// falls back to the analytic tail and the Vina path is identically zero.
inline constexpr double kCutoff = 8.0;
inline constexpr double kCutoffSq = kCutoff * kCutoff;
inline constexpr int kEntries = 4096;

/// Linear interpolation into one channel of kEntries + 1 samples uniform
/// in r². `r2` must lie in [0, kCutoffSq].
inline double interpolate(const double* samples, double r2) {
  constexpr double kInvStep = kEntries / kCutoffSq;
  const double x = r2 * kInvStep;
  int i = static_cast<int>(x);
  if (i >= kEntries) i = kEntries - 1;  // r2 == kCutoffSq lands here
  const double t = x - static_cast<double>(i);
  return samples[i] + (samples[i + 1] - samples[i]) * t;
}

/// Triangular index of the unordered type pair (ti, tj) into a flat array
/// of kAdTypeCount * (kAdTypeCount + 1) / 2 per-pair channels.
inline int pair_index(mol::AdType ti, mol::AdType tj) {
  int lo = static_cast<int>(ti);
  int hi = static_cast<int>(tj);
  if (lo > hi) {
    const int tmp = lo;
    lo = hi;
    hi = tmp;
  }
  return lo * mol::kAdTypeCount - lo * (lo + 1) / 2 + hi;
}

inline constexpr int kPairCount =
    mol::kAdTypeCount * (mol::kAdTypeCount + 1) / 2;

/// One lane-batch of interpolation bins: every table in this module shares
/// the same resolution and domain, so the (bin, fraction) computation for a
/// vector of squared distances is done once and reused across channels —
/// AutoGrid sweeps the Coulomb, desolvation and every ligand-type vdW row
/// of one receptor atom with the same LaneBins.
struct LaneBins {
  std::int32_t lo[simd::f64x::kWidth];  ///< bin index per lane
  std::int32_t hi[simd::f64x::kWidth];  ///< bin index + 1 per lane
  simd::f64x t;                         ///< blend fraction per lane
};

/// Bin/fraction computation for kWidth squared distances. Lanes must lie
/// in [0, kCutoffSq] (callers clamp or peel out-of-domain lanes first);
/// each lane reproduces the scalar interpolate() indexing exactly,
/// including the top-bin clamp at r2 == kCutoffSq.
inline LaneBins lane_bins(simd::f64x r2) {
  constexpr double kInvStep = kEntries / kCutoffSq;
  const simd::f64x x = r2 * simd::f64x(kInvStep);
  alignas(64) double xi[simd::f64x::kWidth];
  LaneBins b;
  simd::truncate_to_int(x, b.lo);
  for (int l = 0; l < simd::f64x::kWidth; ++l) {
    if (b.lo[l] >= kEntries) b.lo[l] = kEntries - 1;
    b.hi[l] = b.lo[l] + 1;
    xi[l] = static_cast<double>(b.lo[l]);
  }
  b.t = x - simd::f64x::load(xi);
  return b;
}

/// Lane-parallel blend where every lane reads a different channel (one
/// LUT row per lane): per-lane base pointers, shared bins. Same
/// association as the scalar interpolate() — a + (b - a) * t — so each
/// lane is bit-equal to the scalar path on backends without FMA
/// contraction.
inline simd::f64x interpolate_rows(const double* const* rows,
                                   const LaneBins& b) {
  alignas(64) double a[simd::f64x::kWidth];
  alignas(64) double c[simd::f64x::kWidth];
  for (int l = 0; l < simd::f64x::kWidth; ++l) {
    a[l] = rows[l][b.lo[l]];
    c[l] = rows[l][b.hi[l]];
  }
  const simd::f64x av = simd::f64x::load(a);
  const simd::f64x cv = simd::f64x::load(c);
  return av + (cv - av) * b.t;
}

}  // namespace lut

/// AD4 radial tables: one weighted vdW/H-bond channel per unordered type
/// pair plus the shared screened-Coulomb and desolvation-Gaussian
/// channels. All channels apply the kMinDistance = 0.5 Å clamp exactly
/// like the analytic path, so the sub-clamp region is constant.
class Ad4PairTables {
 public:
  explicit Ad4PairTables(const Ad4Weights& weights);

  /// Process-wide shared instance for a weight vector (built on first
  /// use, then reused by every energy model / grid calculator).
  static std::shared_ptr<const Ad4PairTables> shared(const Ad4Weights& weights);

  const Ad4Weights& weights() const { return weights_; }
  static constexpr double cutoff_sq() { return lut::kCutoffSq; }

  /// Weighted, clamped 12-6 / 12-10 well: ad4_vdw_hbond(ti, tj, sqrt(r2)).
  double vdw_hbond(mol::AdType ti, mol::AdType tj, double r2) const {
    return lut::interpolate(vdw_row(ti, tj), r2);
  }

  /// Base pointer of one pair's vdW/H-bond channel — hoist out of inner
  /// loops that evaluate many distances for a fixed type pair (AutoGrid).
  const double* vdw_row(mol::AdType ti, mol::AdType tj) const {
    return vdw_.data() +
           static_cast<std::size_t>(lut::pair_index(ti, tj)) *
               (lut::kEntries + 1);
  }

  /// w_estat * 332.06 / (eps(r) * r); multiply by q_i * q_j (or by the
  /// receptor charge for the unit-charge electrostatic map).
  double coulomb_factor(double r2) const {
    return lut::interpolate(coulomb_.data(), r2);
  }

  /// w_desolv * exp(-r² / (2 σ²)); multiply by the solvation cross terms.
  double desolv_gauss(double r2) const {
    return lut::interpolate(gauss_.data(), r2);
  }

  /// Raw channel base pointers, for callers that interleave these with
  /// per-pair vdW rows in one lane-parallel channel sweep (AutoGrid).
  const double* coulomb_channel() const { return coulomb_.data(); }
  const double* desolv_channel() const { return gauss_.data(); }

  /// Drop-in for ad4_pair_energy(ti, qi, tj, qj, sqrt(r2), weights):
  /// table path inside the cutoff, analytic tail beyond it.
  double pair_energy(mol::AdType ti, double qi, mol::AdType tj, double qj,
                     double r2) const;

 private:
  Ad4Weights weights_;
  std::vector<double> vdw_;      ///< kPairCount channels
  std::vector<double> coulomb_;  ///< one shared channel
  std::vector<double> gauss_;    ///< one shared channel
};

/// Vina radial tables: the full pairwise term (gauss1/gauss2/repulsion/
/// hydrophobic/h-bond on the surface distance) is charge-free, so one
/// channel per unordered type pair tabulates it completely. Zero beyond
/// the 8 Å cutoff by construction, matching the analytic truncation.
class VinaPairTables {
 public:
  explicit VinaPairTables(const VinaWeights& weights);

  static std::shared_ptr<const VinaPairTables> shared(
      const VinaWeights& weights);

  const VinaWeights& weights() const { return weights_; }
  static constexpr double cutoff_sq() { return lut::kCutoffSq; }

  /// vina_pair_energy(ti, tj, sqrt(r2)); r2 past the cutoff returns 0.
  double pair_energy(mol::AdType ti, mol::AdType tj, double r2) const {
    if (r2 >= lut::kCutoffSq) return 0.0;
    return lut::interpolate(
        pair_.data() + static_cast<std::size_t>(lut::pair_index(ti, tj)) *
                           (lut::kEntries + 1),
        r2);
  }

  /// Base pointer of one pair's channel (hoist out of neighbour loops).
  const double* row(mol::AdType ti, mol::AdType tj) const {
    return pair_.data() + static_cast<std::size_t>(lut::pair_index(ti, tj)) *
                              (lut::kEntries + 1);
  }

  /// Lane-batched pair term with per-lane row() pointers, for the
  /// neighbour-block loop of VinaEnergyModel::intermolecular. Accepts any
  /// non-negative r²: lanes at or beyond the cutoff are clamped into the
  /// table domain and then masked to the analytic zero, so neighbour-block
  /// tails can pad with kCutoffSq.
  simd::f64x pair_energy_lanes(const double* const* rows,
                               simd::f64x r2) const {
    const simd::f64x cutoff(lut::kCutoffSq);
    const simd::f64x inside = simd::less_than(r2, cutoff);
    const lut::LaneBins bins = lut::lane_bins(simd::min(r2, cutoff));
    return simd::blend(inside, lut::interpolate_rows(rows, bins),
                       simd::f64x());
  }

 private:
  VinaWeights weights_;
  std::vector<double> pair_;  ///< kPairCount channels
};

}  // namespace scidock::dock
