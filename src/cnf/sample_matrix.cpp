#include "cnf/sample_matrix.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/budget.hpp"
#include "util/rng.hpp"

namespace manthan::cnf {

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

void SampleMatrix::check_width(const Assignment& a) const {
  // Callers hand in solver models sized to a possibly different variable
  // range; an undersized assignment would read out of bounds below, so
  // the precondition must hold in Release builds too.
  if (a.size() < num_vars_) {
    throw std::invalid_argument(
        "SampleMatrix::append: assignment covers " +
        std::to_string(a.size()) + " variables, matrix needs " +
        std::to_string(num_vars_));
  }
}

void SampleMatrix::append_row(const Assignment& a) {
  grow_words((num_samples_ >> 6) + 1);
  const std::size_t s = num_samples_++;
  const std::size_t word = s >> 6;
  const std::uint64_t bit = 1ULL << (s & 63);
  // Visit only the set bits of the model, a word at a time.
  const std::vector<std::uint64_t>& words = a.words();
  for (std::size_t w = 0; w * 64 < num_vars_; ++w) {
    std::uint64_t bits = words[w];
    const std::size_t rem = num_vars_ - w * 64;
    if (rem < 64) bits &= (1ULL << rem) - 1;
    while (bits != 0) {
      const std::size_t v = w * 64 + static_cast<std::size_t>(
                                         __builtin_ctzll(bits));
      data_[v * words_cap_ + word] |= bit;
      bits &= bits - 1;
    }
  }
}

bool SampleMatrix::insert_fingerprint(std::uint64_t fp) {
  if (fp == 0) {
    const bool fresh = !has_zero_fp_;
    has_zero_fp_ = true;
    return fresh;
  }
  if (fps_used_ * 2 >= fps_.size()) {
    // Fingerprints are splitmix64 outputs, so their low bits index the
    // table directly.
    std::vector<std::uint64_t> grown(fps_.empty() ? 1024 : fps_.size() * 2);
    const std::size_t mask = grown.size() - 1;
    for (const std::uint64_t old : fps_) {
      if (old == 0) continue;
      std::size_t slot = old & mask;
      while (grown[slot] != 0) slot = (slot + 1) & mask;
      grown[slot] = old;
    }
    fps_ = std::move(grown);
  }
  const std::size_t mask = fps_.size() - 1;
  std::size_t slot = fp & mask;
  while (fps_[slot] != 0) {
    if (fps_[slot] == fp) return false;
    slot = (slot + 1) & mask;
  }
  fps_[slot] = fp;
  ++fps_used_;
  return true;
}

void SampleMatrix::append(const Assignment& a) {
  check_width(a);
  insert_fingerprint(fingerprint(a, num_vars_));
  append_row(a);
}

bool SampleMatrix::append_distinct(const Assignment& a) {
  check_width(a);
  if (!insert_fingerprint(fingerprint(a, num_vars_))) return false;
  append_row(a);
  return true;
}

Assignment SampleMatrix::row(std::size_t sample) const {
  assert(sample < num_samples_);
  Assignment a(num_vars_);
  for (std::size_t v = 0; v < num_vars_; ++v) {
    a.set(static_cast<Var>(v), value(sample, static_cast<Var>(v)));
  }
  return a;
}

std::uint64_t fingerprint(const Assignment& a, std::size_t num_vars) {
  assert(num_vars <= a.size());
  const std::vector<std::uint64_t>& words = a.words();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ num_vars;
  const std::size_t full = num_vars >> 6;
  for (std::size_t w = 0; w < full; ++w) h = util::splitmix64(h ^ words[w]);
  const std::size_t rem = num_vars & 63;
  if (rem != 0) {
    h = util::splitmix64(h ^ (words[full] & ((1ULL << rem) - 1)));
  }
  return h;
}

std::uint64_t fingerprint(const Assignment& a) {
  return fingerprint(a, a.size());
}

}  // namespace manthan::cnf
