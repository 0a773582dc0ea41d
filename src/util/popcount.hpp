// Population count of a 64-bit word, inline on every target.
//
// The packed sample kernels (decision-tree split counts, sampler column
// counts, candidate error counts, arbiter distances) count bits one word
// at a time. The build adds no ISA flag, and without one GCC lowers
// __builtin_popcountll to a call into libgcc's __popcountdi2 per word.
// This helper is a branch-free SWAR count that stays inline.
#pragma once

#include <cstddef>
#include <cstdint>

namespace manthan::util {

inline std::size_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace manthan::util
