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

#include <memory>
#include <vector>

#include "dock/scoring.hpp"
#include "mol/atom_typing.hpp"

namespace scidock::dock {

namespace lut {

/// Table resolution shared by the AD4 and Vina sets. The domain ends at
/// the 8 Å interaction cutoff both engines use; beyond it the AD4 path
/// falls back to the analytic tail and the Vina path is identically zero.
inline constexpr double kCutoff = 8.0;
inline constexpr double kCutoffSq = kCutoff * kCutoff;
inline constexpr int kEntries = 4096;

/// Interpolation bin of a squared distance: samples[lo] and samples[lo + 1]
/// blended by t. Every table shares one resolution and domain, so one bin
/// serves every channel at that distance (AutoGrid's channel sweep).
struct Bin {
  int lo;
  double t;
};

/// `r2` must lie in [0, kCutoffSq]; r2 == kCutoffSq lands in the top bin
/// with t == 1.
inline Bin bin(double r2) {
  constexpr double kInvStep = kEntries / kCutoffSq;
  const double x = r2 * kInvStep;
  int lo = static_cast<int>(x);
  if (lo >= kEntries) lo = kEntries - 1;
  return {lo, x - static_cast<double>(lo)};
}

/// The blend of two adjacent samples. Every table read uses this one
/// association, so a value read through any layout of the same samples
/// (AutoGrid's channel slices) keeps its bits.
inline double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Linear interpolation into one channel of kEntries + 1 samples uniform
/// in r².
inline double interpolate(const double* samples, Bin b) {
  return lerp(samples[b.lo], samples[b.lo + 1], b.t);
}

inline double interpolate(const double* samples, double r2) {
  return interpolate(samples, bin(r2));
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

  /// Raw channel base pointers, for AutoGrid's sweep that reads these and
  /// the vdW rows with one lut::bin per neighbour.
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

 private:
  VinaWeights weights_;
  std::vector<double> pair_;  ///< kPairCount channels
};

}  // namespace scidock::dock
