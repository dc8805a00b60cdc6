#pragma once

/// \file aligned.hpp
/// Cache-line-aligned allocation for SIMD batch buffers (DESIGN.md §13).
///
/// `util::aligned_vector<double>` is a drop-in std::vector whose storage
/// starts on a 64-byte boundary, so full-width simd::f64x loads at lane
/// offsets 0, W, 2W, ... never straddle a cache line (and never fault on
/// ISAs with alignment-checked vector loads). AutoGrid's channel
/// accumulators and Vina's neighbour-block scratch use it; everything else
/// keeps the default allocator.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace scidock::util {

inline constexpr std::size_t kSimdAlignment = 64;  ///< one x86 cache line

template <typename T, std::size_t Alignment = kSimdAlignment>
class AlignedAllocator {
 public:
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "alignment below the type's natural requirement");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    // operator new rounds the size itself; std::aligned_alloc would demand
    // a size that is a multiple of the alignment.
    void* p = ::operator new(n * sizeof(T), std::align_val_t{Alignment});
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  bool operator==(const AlignedAllocator&) const noexcept { return true; }
  bool operator!=(const AlignedAllocator&) const noexcept { return false; }
};

/// std::vector with cache-line-aligned storage. Interoperates with plain
/// std::vector through iterator-range construction/assignment only — the
/// allocator is part of the type, which is exactly the point: a buffer of
/// this type is alignment-guaranteed wherever it flows.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace scidock::util
