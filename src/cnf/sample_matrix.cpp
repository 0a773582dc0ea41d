#include "cnf/sample_matrix.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/budget.hpp"
#include "util/rng.hpp"

namespace manthan::cnf {

namespace {

/// Shared mixer behind fingerprint() and SampleMatrix::row_fingerprint():
/// packs bits 64 at a time and chains each word through splitmix64. Both
/// entry points MUST hash equal assignments equally — the synthesis loop
/// dedups solver models (via fingerprint) against matrix rows (via
/// row_fingerprint) — and sharing the feeder enforces that structurally.
template <typename BitAt>
std::uint64_t fingerprint_bits(std::size_t num_vars, BitAt bit_at) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ num_vars;
  std::uint64_t word = 0;
  for (std::size_t v = 0; v < num_vars; ++v) {
    if (bit_at(v)) word |= 1ULL << (v & 63);
    if ((v & 63) == 63) {
      h = util::splitmix64(h ^ word);
      word = 0;
    }
  }
  if ((num_vars & 63) != 0) h = util::splitmix64(h ^ word);
  return h;
}

}  // namespace

void SampleMatrix::grow_words(std::size_t words) {
  if (words <= words_cap_) return;
  std::size_t cap = words_cap_ == 0 ? 8 : words_cap_;
  while (cap < words) cap *= 2;
  // Matrix growth is an instrumented hazard point: the byte delta is
  // charged to the thread's ResourceBudget and a (real or injected)
  // bad_alloc becomes OutOfBudgetError instead of process death.
  std::vector<std::uint64_t> grown;
  util::guarded_grow(
      util::fault::Site::kSampleMatrixGrow,
      num_vars_ * (cap - words_cap_) * sizeof(std::uint64_t), [&] {
        grown = std::vector<std::uint64_t>(num_vars_ * cap, 0);
      });
  for (std::size_t v = 0; v < num_vars_; ++v) {
    const std::uint64_t* src = data_.data() + v * words_cap_;
    std::uint64_t* dst = grown.data() + v * cap;
    for (std::size_t w = 0; w < words_cap_; ++w) dst[w] = src[w];
  }
  data_ = std::move(grown);
  words_cap_ = cap;
}

void SampleMatrix::reserve(std::size_t samples) {
  grow_words((samples + 63) / 64);
}

void SampleMatrix::append(const Assignment& a) {
  // Callers hand in solver models sized to a possibly different variable
  // range; an undersized assignment would read out of bounds below, so
  // the precondition must hold in Release builds too.
  if (a.size() < num_vars_) {
    throw std::invalid_argument(
        "SampleMatrix::append: assignment covers " +
        std::to_string(a.size()) + " variables, matrix needs " +
        std::to_string(num_vars_));
  }
  const std::size_t s = num_samples_++;
  grow_words((s >> 6) + 1);
  const std::size_t word = s >> 6;
  const std::uint64_t bit = 1ULL << (s & 63);
  for (std::size_t v = 0; v < num_vars_; ++v) {
    if (a.value(static_cast<Var>(v))) data_[v * words_cap_ + word] |= bit;
  }
}

Assignment SampleMatrix::row(std::size_t sample) const {
  assert(sample < num_samples_);
  Assignment a(num_vars_);
  for (std::size_t v = 0; v < num_vars_; ++v) {
    a.set(static_cast<Var>(v), value(sample, static_cast<Var>(v)));
  }
  return a;
}

std::uint64_t SampleMatrix::row_fingerprint(std::size_t sample) const {
  return fingerprint_bits(num_vars_, [&](std::size_t v) {
    return value(sample, static_cast<Var>(v));
  });
}

std::uint64_t fingerprint(const Assignment& a, std::size_t num_vars) {
  return fingerprint_bits(num_vars, [&](std::size_t v) {
    return a.value(static_cast<Var>(v));
  });
}

std::uint64_t fingerprint(const Assignment& a) {
  return fingerprint(a, a.size());
}

}  // namespace manthan::cnf
