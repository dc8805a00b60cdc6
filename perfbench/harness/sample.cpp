#include <algorithm>
#include <random>

#include "bench.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"

namespace perfbench {

namespace {

enum class Klass { Hg, Ad4, Vina };

Klass klass_of(const std::string& code) {
  if (scidock::data::receptor_has_hg(code)) return Klass::Hg;
  return scidock::data::receptor_residue_count(code) >
                 scidock::data::vina_size_threshold()
             ? Klass::Vina
             : Klass::Ad4;
}

/// Index in [0, n) from mt19937_64, whose output sequence the C++ standard
/// fixes, so a seed draws the same sample with every standard library.
std::size_t below(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

}  // namespace

std::vector<std::string> draw_receptors(std::size_t count, std::uint64_t seed) {
  const std::vector<std::string>& all = scidock::data::table2_receptors();
  count = std::min(count, all.size());
  std::vector<std::string> sample(all.begin(),
                                  all.begin() + static_cast<long>(count));
  if (seed == 0) return sample;

  std::mt19937_64 rng(seed);
  for (const Klass k : {Klass::Hg, Klass::Ad4, Klass::Vina}) {
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (klass_of(sample[i]) == k) slots.push_back(i);
    }
    if (slots.empty()) continue;
    std::vector<std::string> pool;
    for (const std::string& code : all) {
      if (klass_of(code) == k) pool.push_back(code);
    }
    std::sort(pool.begin(), pool.end(),
              [](const std::string& a, const std::string& b) {
                const int ra = scidock::data::receptor_residue_count(a);
                const int rb = scidock::data::receptor_residue_count(b);
                return ra != rb ? ra < rb : a < b;
              });
    // One receptor from each of slots.size() equal residue-count strata,
    // then shuffled so the size order does not fix the position order.
    const std::size_t n = slots.size();
    std::vector<std::string> drawn;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t lo = pool.size() * s / n;
      const std::size_t hi = pool.size() * (s + 1) / n;
      drawn.push_back(pool[lo + below(rng, hi - lo)]);
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(drawn[i - 1], drawn[below(rng, i)]);
    }
    for (std::size_t s = 0; s < n; ++s) sample[slots[s]] = drawn[s];
  }
  return sample;
}

}  // namespace perfbench
