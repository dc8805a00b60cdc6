#include "mol/geometry.hpp"

#include <numbers>

#include "util/error.hpp"

namespace scidock::mol {

Quaternion Quaternion::from_axis_angle(const Vec3& axis, double angle_rad) {
  const Vec3 u = axis.normalized();
  const double half = angle_rad * 0.5;
  const double s = std::sin(half);
  return {std::cos(half), u.x * s, u.y * s, u.z * s};
}

Quaternion Quaternion::random_uniform(double u1, double u2, double u3) {
  // K. Shoemake, "Uniform random rotations", Graphics Gems III.
  const double two_pi = 2.0 * std::numbers::pi;
  const double s1 = std::sqrt(1.0 - u1);
  const double s2 = std::sqrt(u1);
  return Quaternion{s1 * std::sin(two_pi * u2), s1 * std::cos(two_pi * u2),
                    s2 * std::sin(two_pi * u3), s2 * std::cos(two_pi * u3)}
      .normalized();
}

Quaternion Quaternion::operator*(const Quaternion& o) const {
  return {w * o.w - x * o.x - y * o.y - z * o.z,
          w * o.x + x * o.w + y * o.z - z * o.y,
          w * o.y - x * o.z + y * o.w + z * o.x,
          w * o.z + x * o.y - y * o.x + z * o.w};
}

Quaternion Quaternion::normalized() const {
  const double n = norm();
  if (n < 1e-12) return identity();
  return {w / n, x / n, y / n, z / n};
}

Vec3 Quaternion::rotate(const Vec3& v) const {
  // v' = v + 2 q_v x (q_v x v + w v), the standard quaternion sandwich
  // expanded to avoid constructing the conjugate product.
  const Vec3 qv{x, y, z};
  const Vec3 t = qv.cross(v) * 2.0;
  return v + t * w + qv.cross(t);
}

Mat3 Mat3::rotation(const Quaternion& q) {
  // rotate() is v + 2w (q_v x v) + 2 q_v x (q_v x v); as a matrix that is
  // I + 2w [q_v]x + 2 (q_v q_v^T - |q_v|^2 I).
  const double xx = q.x * q.x, yy = q.y * q.y, zz = q.z * q.z;
  const double xy = q.x * q.y, xz = q.x * q.z, yz = q.y * q.z;
  const double wx = q.w * q.x, wy = q.w * q.y, wz = q.w * q.z;
  return {{1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
           2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
           2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)}};
}

Mat3 Mat3::axis_angle(const Vec3& axis, double angle_rad) {
  // Rodrigues: cos I + sin [u]x + (1 - cos) u u^T.
  const Vec3 u = axis.normalized();
  const double c = std::cos(angle_rad);
  const double s = std::sin(angle_rad);
  const double t = 1.0 - c;
  return {{c + t * u.x * u.x, t * u.x * u.y - s * u.z, t * u.x * u.z + s * u.y,
           t * u.x * u.y + s * u.z, c + t * u.y * u.y, t * u.y * u.z - s * u.x,
           t * u.x * u.z - s * u.y, t * u.y * u.z + s * u.x, c + t * u.z * u.z}};
}

Vec3 centroid(std::span<const Vec3> points) {
  SCIDOCK_ASSERT(!points.empty());
  Vec3 sum{};
  for (const Vec3& p : points) sum += p;
  return sum / static_cast<double>(points.size());
}

Aabb bounding_box(std::span<const Vec3> points) {
  SCIDOCK_ASSERT(!points.empty());
  Aabb box{points[0], points[0]};
  for (const Vec3& p : points) {
    box.lo.x = std::min(box.lo.x, p.x);
    box.lo.y = std::min(box.lo.y, p.y);
    box.lo.z = std::min(box.lo.z, p.z);
    box.hi.x = std::max(box.hi.x, p.x);
    box.hi.y = std::max(box.hi.y, p.y);
    box.hi.z = std::max(box.hi.z, p.z);
  }
  return box;
}

double dihedral_angle(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d) {
  const Vec3 b1 = b - a;
  const Vec3 b2 = c - b;
  const Vec3 b3 = d - c;
  const Vec3 n1 = b1.cross(b2);
  const Vec3 n2 = b2.cross(b3);
  const Vec3 m1 = n1.cross(b2.normalized());
  const double x = n1.dot(n2);
  const double y = m1.dot(n2);
  return std::atan2(y, x);
}

Vec3 rotate_about_axis(const Vec3& p, const Vec3& origin, const Vec3& axis,
                       double angle_rad) {
  const Quaternion q = Quaternion::from_axis_angle(axis, angle_rad);
  return q.rotate(p - origin) + origin;
}

}  // namespace scidock::mol
