#include "dock/grid.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::dock {

GridBox GridBox::around(const mol::Vec3& center, double half_extent,
                        double spacing) {
  SCIDOCK_ASSERT(half_extent > 0 && spacing > 0);
  GridBox box;
  box.center = center;
  box.spacing = spacing;
  const int n = std::max(2, static_cast<int>(std::ceil(2.0 * half_extent / spacing)) + 1);
  box.npts = {n, n, n};
  return box;
}

namespace {

/// Points on one axis from its (possibly fractional) interval count.
/// Rejects NaN, fewer than 1 interval and more than 2^20.
int checked_grid_points(double intervals, std::string_view context) {
  constexpr double kMaxIntervals = 1 << 20;
  if (!(intervals >= 1.0 && intervals <= kMaxIntervals)) {
    throw ParseError(context,
                     strformat("%g grid intervals on an axis, need 1 to %.0f",
                               intervals, kMaxIntervals));
  }
  return static_cast<int>(intervals) + 1;
}

}  // namespace

int parse_grid_points(std::string_view intervals, std::string_view context) {
  return checked_grid_points(
      static_cast<double>(parse_int(intervals, context)), context);
}

int grid_points_for_size(double size, double spacing,
                         std::string_view context) {
  return checked_grid_points(size / spacing, context);
}

double parse_grid_spacing(std::string_view field, std::string_view context) {
  const double spacing = parse_double(field, context);
  if (!std::isfinite(spacing) || spacing <= 0.0) {
    throw ParseError(context,
                     strformat("grid spacing %g is not positive", spacing));
  }
  return spacing;
}

GridMap::GridMap(GridBox box, std::string label)
    : box_(box), label_(std::move(label)), values_(box.total_points(), 0.0) {
  SCIDOCK_ASSERT(box.npts[0] >= 2 && box.npts[1] >= 2 && box.npts[2] >= 2);
}

std::size_t GridMap::index(int ix, int iy, int iz) const {
  SCIDOCK_ASSERT(ix >= 0 && ix < box_.npts[0]);
  SCIDOCK_ASSERT(iy >= 0 && iy < box_.npts[1]);
  SCIDOCK_ASSERT(iz >= 0 && iz < box_.npts[2]);
  return static_cast<std::size_t>(ix) +
         static_cast<std::size_t>(box_.npts[0]) *
             (static_cast<std::size_t>(iy) +
              static_cast<std::size_t>(box_.npts[1]) * static_cast<std::size_t>(iz));
}

double& GridMap::at(int ix, int iy, int iz) { return values_[index(ix, iy, iz)]; }

double GridMap::at(int ix, int iy, int iz) const { return values_[index(ix, iy, iz)]; }

double GridMap::sample(const mol::Vec3& p) const {
  const TrilinearSampler s(box_, p);
  return s.in_box() ? s.apply(*this) : kOutOfBoxPenalty;
}

TrilinearSampler::TrilinearSampler(const GridBox& box, const mol::Vec3& p) {
  SCIDOCK_ASSERT(box.npts[0] >= 2 && box.npts[1] >= 2 && box.npts[2] >= 2);
  const mol::Vec3 o = box.origin();
  const double fx = (p.x - o.x) / box.spacing;
  const double fy = (p.y - o.y) / box.spacing;
  const double fz = (p.z - o.z) / box.spacing;
  if (fx < 0 || fy < 0 || fz < 0 || fx > box.npts[0] - 1 ||
      fy > box.npts[1] - 1 || fz > box.npts[2] - 1) {
    return;  // in_box_ stays false
  }
  const int ix = std::min(static_cast<int>(fx), box.npts[0] - 2);
  const int iy = std::min(static_cast<int>(fy), box.npts[1] - 2);
  const int iz = std::min(static_cast<int>(fz), box.npts[2] - 2);
  tx_ = fx - ix;
  ty_ = fy - iy;
  tz_ = fz - iz;
  sy_ = static_cast<std::size_t>(box.npts[0]);
  sz_ = sy_ * static_cast<std::size_t>(box.npts[1]);
  base_ = static_cast<std::size_t>(ix) +
          sy_ * static_cast<std::size_t>(iy) +
          sz_ * static_cast<std::size_t>(iz);
  in_box_ = true;
}

std::string GridMap::to_map_file() const {
  std::string out;
  out += "GRID_PARAMETER_FILE scidock.gpf\n";
  out += "GRID_DATA_FILE scidock.maps.fld\n";
  out += "MACROMOLECULE receptor.pdbqt\n";
  out += strformat("LABEL %s\n", label_.c_str());
  out += strformat("SPACING %.4f\n", box_.spacing);
  out += strformat("NELEMENTS %d %d %d\n", box_.npts[0] - 1, box_.npts[1] - 1,
                   box_.npts[2] - 1);
  out += strformat("CENTER %.3f %.3f %.3f\n", box_.center.x, box_.center.y,
                   box_.center.z);
  for (double v : values_) out += strformat("%.4f\n", v);
  return out;
}

GridMap GridMap::from_map_file(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  GridBox box;
  std::string label;
  std::vector<double> values;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields[0] == "LABEL" && fields.size() >= 2) {
      label = fields[1];
    } else if (fields[0] == "SPACING" && fields.size() >= 2) {
      box.spacing = parse_grid_spacing(fields[1], "map SPACING");
    } else if (fields[0] == "NELEMENTS" && fields.size() >= 4) {
      box.npts = {parse_grid_points(fields[1], "map nx"),
                  parse_grid_points(fields[2], "map ny"),
                  parse_grid_points(fields[3], "map nz")};
    } else if (fields[0] == "CENTER" && fields.size() >= 4) {
      box.center = {parse_finite_double(fields[1], "map cx"),
                    parse_finite_double(fields[2], "map cy"),
                    parse_finite_double(fields[3], "map cz")};
    } else if (fields.size() == 1 &&
               (std::isdigit(static_cast<unsigned char>(fields[0][0])) ||
                fields[0][0] == '-' || fields[0][0] == '+')) {
      values.push_back(parse_finite_double(fields[0], "map value"));
    }
  }
  GridMap map(box, label);
  if (values.size() != map.values().size()) {
    throw ParseError("map", strformat("expected %zu grid values, found %zu",
                                      map.values().size(), values.size()));
  }
  map.values().assign(values.begin(), values.end());
  return map;
}

const GridMap* GridMapSet::affinity_for(mol::AdType t) const {
  for (const auto& [type, map] : affinity) {
    if (type == t) return &map;
  }
  return nullptr;
}

}  // namespace scidock::dock
