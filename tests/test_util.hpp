// Shared helpers for the pimwfa test suite.
#pragma once

#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/penalties.hpp"
#include "common/rng.hpp"
#include "seq/cigar.hpp"
#include "seq/generator.hpp"

namespace pimwfa::testing {

// A random (pattern, text) pair where the text is the pattern mutated by
// `errors` random edits.
inline seq::ReadPair random_pair(Rng& rng, usize length, usize errors) {
  seq::ReadPair pair;
  pair.pattern = seq::random_sequence(rng, length);
  pair.text = seq::mutate_sequence(rng, pair.pattern, errors);
  return pair;
}

// True when `cigar` holds exactly its ops, give or take allocator slack.
// A backtrace's op buffer has room for pattern + text ops, about twice a
// similar-length pair's CIGAR, so a result that kept that buffer (and
// about doubled its resident bytes) fails this.
inline bool holds_exactly_its_ops(const seq::Cigar& cigar) {
  return 2 * cigar.ops().capacity() < 3 * cigar.size();
}

// A fully random (unrelated) pair, worst case for aligners.
inline seq::ReadPair unrelated_pair(Rng& rng, usize pattern_length,
                                    usize text_length) {
  return {seq::random_sequence(rng, pattern_length),
          seq::random_sequence(rng, text_length)};
}

// --- differential-testing support ---------------------------------------

// One cell of the length x error-rate x penalty sweep the differential
// suite cross-checks aligners over. The seed is derived from the cell so
// every configuration sees a distinct but reproducible workload.
struct DiffConfig {
  usize length = 100;
  double error_rate = 0.02;
  align::Penalties penalties = align::Penalties::defaults();
  u64 seed = 0;

  // gtest-safe name fragment: "len100_e2pct_x4o6e2".
  std::string name() const {
    return "len" + std::to_string(length) + "_e" +
           std::to_string(static_cast<int>(error_rate * 100 + 0.5)) +
           "pct_x" + std::to_string(penalties.mismatch) + "o" +
           std::to_string(penalties.gap_open) + "e" +
           std::to_string(penalties.gap_extend);
  }
};

inline std::ostream& operator<<(std::ostream& os, const DiffConfig& c) {
  return os << c.name();
}

// Derive a deterministic per-config seed so sweep cells don't share pairs.
inline u64 diff_seed(const DiffConfig& c) {
  u64 state = 0xD1FFu ^ (static_cast<u64>(c.length) << 32) ^
              static_cast<u64>(c.error_rate * 1e6) ^
              (static_cast<u64>(static_cast<u32>(c.penalties.mismatch)) << 48) ^
              (static_cast<u64>(static_cast<u32>(c.penalties.gap_open)) << 16) ^
              static_cast<u64>(static_cast<u32>(c.penalties.gap_extend));
  return splitmix64(state);
}

// The config's randomized workload: `pairs` mutated read pairs.
inline seq::ReadPairSet diff_batch(const DiffConfig& c, usize pairs) {
  seq::GeneratorConfig generator;
  generator.pairs = pairs;
  generator.read_length = c.length;
  generator.error_rate = c.error_rate;
  generator.seed = c.seed ? c.seed : diff_seed(c);
  return seq::generate_dataset(generator);
}

// Full cross product of the sweep axes.
inline std::vector<DiffConfig> diff_cross(
    const std::vector<usize>& lengths, const std::vector<double>& error_rates,
    const std::vector<align::Penalties>& penalty_sets) {
  std::vector<DiffConfig> configs;
  for (const usize length : lengths)
    for (const double error_rate : error_rates)
      for (const align::Penalties& penalties : penalty_sets)
        configs.push_back({length, error_rate, penalties, 0});
  return configs;
}

// --- backend matrix -------------------------------------------------------

// One backend configuration a matrix test covers: a registry key plus the
// BatchOptions flag that selects an execution path within that backend
// class (none for the key's default path).
struct BackendVariant {
  std::string key;
  bool align::BatchOptions::*flag = nullptr;
  std::string flag_name = {};

  align::BatchOptions applied_to(align::BatchOptions options) const {
    if (flag) options.*flag = true;
    return options;
  }
  // gtest-safe: "cpu", "cpu_simd", "pim_pipeline", ...
  std::string name() const { return flag ? flag_name : key; }
};

// Every backend class with each execution-path flag it honours.
inline std::vector<BackendVariant> backend_variants() {
  using align::BatchOptions;
  return {{"cpu"},
          {"cpu", &BatchOptions::cpu_simd, "cpu_simd"},
          {"pim"},
          {"pim", &BatchOptions::pim_pipeline, "pim_pipeline"},
          {"pim", &BatchOptions::pim_packed, "pim_packed"},
          {"hybrid"}};
}

// The backend_variants() entry called `name`.
inline BackendVariant backend_variant(const std::string& name) {
  for (const BackendVariant& variant : backend_variants()) {
    if (variant.name() == name) return variant;
  }
  throw std::invalid_argument("unknown backend variant " + name);
}

}  // namespace pimwfa::testing
