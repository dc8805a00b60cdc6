#pragma once

/// \file geometry.hpp
/// 3D vector / quaternion math for molecular coordinates. Values are in
/// Ångström throughout the library.

#include <array>
#include <cmath>
#include <cstddef>
#include <span>

namespace scidock::mol {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3& operator+=(const Vec3& o) { x += o.x; y += o.y; z += o.z; return *this; }
  constexpr Vec3& operator-=(const Vec3& o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  constexpr Vec3& operator*=(double s) { x *= s; y *= s; z *= s; return *this; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }
  constexpr bool operator==(const Vec3&) const = default;

  constexpr double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  constexpr double norm_sq() const { return dot(*this); }
  double norm() const { return std::sqrt(norm_sq()); }

  /// Unit vector; returns +x axis for the zero vector (callers that rotate
  /// about a degenerate axis get an identity-like behaviour, not NaN).
  Vec3 normalized() const {
    const double n = norm();
    if (n < 1e-12) return {1.0, 0.0, 0.0};
    return *this / n;
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

inline double distance(const Vec3& a, const Vec3& b) { return (a - b).norm(); }
inline double distance_sq(const Vec3& a, const Vec3& b) { return (a - b).norm_sq(); }

/// Unit quaternion for rigid rotation.
struct Quaternion {
  double w = 1.0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  static Quaternion identity() { return {}; }

  /// Rotation of `angle_rad` about `axis` (need not be normalized).
  static Quaternion from_axis_angle(const Vec3& axis, double angle_rad);

  /// Uniformly random rotation (Shoemake's method) given three U(0,1) draws.
  static Quaternion random_uniform(double u1, double u2, double u3);

  Quaternion operator*(const Quaternion& o) const;
  Quaternion conjugate() const { return {w, -x, -y, -z}; }
  double norm() const { return std::sqrt(w * w + x * x + y * y + z * z); }
  Quaternion normalized() const;

  Vec3 rotate(const Vec3& v) const;
};

/// Row-major 3x3 matrix: the rotations the torsion tree composes.
struct Mat3 {
  std::array<double, 9> m{1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0};

  /// The rotation q.rotate() applies, for any q (unit or not).
  static Mat3 rotation(const Quaternion& q);
  /// Rotation of `angle_rad` about `axis` (need not be normalized; the
  /// zero axis rotates about +x, as Quaternion::from_axis_angle does).
  static Mat3 axis_angle(const Vec3& axis, double angle_rad);

  Vec3 operator*(const Vec3& v) const {
    return {m[0] * v.x + m[1] * v.y + m[2] * v.z,
            m[3] * v.x + m[4] * v.y + m[5] * v.z,
            m[6] * v.x + m[7] * v.y + m[8] * v.z};
  }
  Mat3 operator*(const Mat3& o) const {
    Mat3 r;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        r.m[3 * i + j] = m[3 * i] * o.m[j] + m[3 * i + 1] * o.m[3 + j] +
                         m[3 * i + 2] * o.m[6 + j];
      }
    }
    return r;
  }
};

/// Rigid transform x -> rotation * x + translation.
struct RigidFrame {
  Mat3 rotation;
  Vec3 translation{};

  Vec3 apply(const Vec3& p) const { return rotation * p + translation; }
};

/// Rigid-body pose: rotation about the body origin followed by translation.
struct Pose {
  Quaternion rotation = Quaternion::identity();
  Vec3 translation{};

  Vec3 apply(const Vec3& v) const { return rotation.rotate(v) + translation; }
};

/// Geometric centroid of a coordinate set.
Vec3 centroid(std::span<const Vec3> points);

/// Axis-aligned bounding box.
struct Aabb {
  Vec3 lo{};
  Vec3 hi{};
  Vec3 size() const { return hi - lo; }
  Vec3 center() const { return (lo + hi) * 0.5; }
  bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }
};

Aabb bounding_box(std::span<const Vec3> points);

/// Dihedral angle (radians) defined by four points, in (-pi, pi].
double dihedral_angle(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Rotate point `p` about the axis through `origin` with direction `axis`
/// by `angle_rad`.
Vec3 rotate_about_axis(const Vec3& p, const Vec3& origin, const Vec3& axis,
                       double angle_rad);

}  // namespace scidock::mol
