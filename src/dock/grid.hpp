#pragma once

/// \file grid.hpp
/// Affinity-grid primitives: the search box, a trilinearly-interpolated
/// scalar field, and the per-atom-type map set AutoGrid produces
/// (SciDock activity 5).

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "mol/atom_typing.hpp"
#include "mol/geometry.hpp"

namespace scidock::dock {

/// The docking search box: centre + integer point counts + spacing, the
/// same parameterisation as AutoGrid's GPF `npts`/`spacing`/`gridcenter`.
struct GridBox {
  mol::Vec3 center{};
  std::array<int, 3> npts{40, 40, 40};  ///< points per axis (>= 2)
  double spacing = 0.375;               ///< Å between points

  mol::Vec3 origin() const {
    return {center.x - spacing * (npts[0] - 1) / 2.0,
            center.y - spacing * (npts[1] - 1) / 2.0,
            center.z - spacing * (npts[2] - 1) / 2.0};
  }
  mol::Vec3 extent() const {
    return {spacing * (npts[0] - 1), spacing * (npts[1] - 1),
            spacing * (npts[2] - 1)};
  }
  mol::Aabb bounds() const {
    const mol::Vec3 o = origin();
    return {o, o + extent()};
  }
  bool contains(const mol::Vec3& p) const { return bounds().contains(p); }
  std::size_t total_points() const {
    return static_cast<std::size_t>(npts[0]) * static_cast<std::size_t>(npts[1]) *
           static_cast<std::size_t>(npts[2]);
  }

  /// Box sized to enclose a ligand search volume around `center` with
  /// `padding` Å on each side, clamped to the given spacing.
  static GridBox around(const mol::Vec3& center, double half_extent,
                        double spacing = 0.375);
};

/// Field readers for the box records of GPF (`npts`, `spacing`) and .map
/// (`NELEMENTS`, `SPACING`) files. Each throws ParseError tagged `context`
/// unless the value gives the shape GridMap and the samplers require, so a
/// malformed file fails its activation instead of aborting the process.
///
/// parse_grid_points: points on one axis from its interval count (the
/// files store points - 1); at least 2 points, and at most 2^20 + 1 so
/// total_points() cannot overflow (real maps have ~10^2 points per axis).
/// parse_grid_spacing: spacing in Å, positive and finite.
/// grid_points_for_size: points on one axis of a box `size` Å long (Vina
/// configs store sizes), truncated to whole intervals, with the bounds of
/// parse_grid_points; a non-finite size is rejected.
int parse_grid_points(std::string_view intervals, std::string_view context);
double parse_grid_spacing(std::string_view field, std::string_view context);
int grid_points_for_size(double size, double spacing,
                         std::string_view context);

/// One scalar field over the box. Storage is x-fastest (AutoGrid order).
class GridMap {
 public:
  GridMap() = default;
  GridMap(GridBox box, std::string label);

  const GridBox& box() const { return box_; }
  const std::string& label() const { return label_; }

  double& at(int ix, int iy, int iz);
  double at(int ix, int iy, int iz) const;

  /// Trilinear interpolation; positions outside the box are clamped to a
  /// large penalty (AutoDock treats out-of-box as forbidden).
  double sample(const mol::Vec3& p) const;

  /// Value returned for out-of-box samples.
  static constexpr double kOutOfBoxPenalty = 1.0e5;

  /// Unchecked linear-index access for the fused sampling hot path. The
  /// caller (TrilinearSampler) validated the cell against the box once;
  /// per-corner `SCIDOCK_ASSERT`s stay out of the inner loop.
  double value_unchecked(std::size_t linear) const { return values_[linear]; }

  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

  /// Serialise in (abbreviated) AutoGrid .map format: header + one value
  /// per line. parse() round-trips.
  std::string to_map_file() const;
  static GridMap from_map_file(std::string_view text);

 private:
  std::size_t index(int ix, int iy, int iz) const;

  GridBox box_;
  std::string label_;
  std::vector<double> values_;
};

/// Trilinear cell + weights for one position in one box, computed once and
/// applied to any number of maps sharing that box — the fused sampling
/// path: AD4 reads the affinity, electrostatic and desolvation maps per
/// atom, so fusing saves two thirds of the origin/index math.
///
/// apply() reproduces GridMap::sample() bit for bit (same corner loads,
/// same lerp association); GridMap::sample() itself delegates here.
class TrilinearSampler {
 public:
  TrilinearSampler(const GridBox& box, const mol::Vec3& p);

  bool in_box() const { return in_box_; }

  /// Interpolate `map` at the constructor position. Contract: `map`
  /// shares the constructor box (same npts/spacing/origin) and the
  /// position was in the box; unchecked in the inner loop.
  double apply(const GridMap& map) const {
    auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
    const std::size_t b = base_;
    const double c00 =
        lerp(map.value_unchecked(b), map.value_unchecked(b + 1), tx_);
    const double c10 = lerp(map.value_unchecked(b + sy_),
                            map.value_unchecked(b + sy_ + 1), tx_);
    const double c01 = lerp(map.value_unchecked(b + sz_),
                            map.value_unchecked(b + sz_ + 1), tx_);
    const double c11 = lerp(map.value_unchecked(b + sy_ + sz_),
                            map.value_unchecked(b + sy_ + sz_ + 1), tx_);
    return lerp(lerp(c00, c10, ty_), lerp(c01, c11, ty_), tz_);
  }

 private:
  std::size_t base_ = 0;
  std::size_t sy_ = 0;  ///< +1 in y: npts[0]
  std::size_t sz_ = 0;  ///< +1 in z: npts[0] * npts[1]
  double tx_ = 0.0;
  double ty_ = 0.0;
  double tz_ = 0.0;
  bool in_box_ = false;
};

/// The scoring function a map set tabulates, i.e. the engine that reads it.
enum class ScoringFunction { Ad4, Vina };

/// The full AutoGrid output for one receptor/box. An AD4 set holds one
/// vdW/H-bond affinity map per ligand atom type plus the electrostatic and
/// desolvation maps. A Vina set holds one map per non-hydrogen ligand type
/// carrying the whole Vina pair term (it is charge-free), and no e/d maps.
struct GridMapSet {
  GridBox box;
  ScoringFunction scoring = ScoringFunction::Ad4;
  std::vector<std::pair<mol::AdType, GridMap>> affinity;  ///< per ligand type
  GridMap electrostatic;  ///< AD4 only
  GridMap desolvation;    ///< AD4 only

  const GridMap* affinity_for(mol::AdType t) const;
  /// Number of files the real AutoGrid would emit (atom maps, e and d for
  /// AD4, field and xyz), used by the provenance file accounting.
  int file_count() const {
    return static_cast<int>(affinity.size()) +
           (scoring == ScoringFunction::Ad4 ? 4 : 2);
  }
};

}  // namespace scidock::dock
