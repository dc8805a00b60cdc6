#pragma once

/// \file racer.hpp
/// Data races are ThreadSanitizer's job (ci/check.sh tsan); this header
/// exists only for the perfbench harness, which prints whether a race
/// analyzer is compiled in. Nothing in the library uses it.

namespace scidock::racer {

constexpr bool compiled_in() { return false; }

}  // namespace scidock::racer
