// Clause-simplification kernels for occurrence-list-driven subsumption
// and self-subsuming resolution over sorted clauses. The DQBF
// preprocessor (preprocess/hqspre_lite.cpp) is their user; the CDCL
// solver does no clause simplification of its own.
//
// The workhorse is the 64-bit clause abstraction (SatELite's signature
// trick): hash every variable into one of 64 buckets and OR the bucket
// bits. C ⊆ D implies abst(C) & ~abst(D) == 0, so a single AND+compare
// rejects almost every non-subsuming candidate pair before the O(|C|)
// subset test runs.
#pragma once

#include <cstdint>

#include "cnf/lit.hpp"

namespace manthan::sat {

/// Abstraction bit of one variable.
inline std::uint64_t abstraction_bit(cnf::Var v) {
  return 1ULL << (static_cast<std::uint32_t>(v) & 63u);
}

/// 64-bit signature of a literal range (any iterable of cnf::Lit).
template <typename Lits>
std::uint64_t clause_abstraction(const Lits& lits) {
  std::uint64_t a = 0;
  for (const cnf::Lit l : lits) a |= abstraction_bit(l.var());
  return a;
}

/// Fast necessary condition for {sub} ⊆ {sup}.
inline bool abstraction_subsumes(std::uint64_t sub, std::uint64_t sup) {
  return (sub & ~sup) == 0;
}

/// Exact subset test over *sorted* literal ranges: every literal of `sub`
/// occurs in `sup`.
template <typename LitsA, typename LitsB>
bool subsumes_sorted(const LitsA& sub, const LitsB& sup) {
  auto it = sup.begin();
  for (const cnf::Lit l : sub) {
    while (it != sup.end() && *it < l) ++it;
    if (it == sup.end() || !(*it == l)) return false;
  }
  return true;
}

/// Self-subsuming resolution probe over *sorted* ranges: if `sub` with
/// exactly one literal flipped is a subset of `sup`, returns that flipped
/// literal as it occurs in `sup` (the literal strengthening removes from
/// `sup`); returns cnf::kUndefLit otherwise. A return of l means
///   sup := sup \ {l}
/// is sound: resolving sub and sup on var(l) yields a clause subsuming it.
template <typename LitsA, typename LitsB>
cnf::Lit self_subsumes_sorted(const LitsA& sub, const LitsB& sup) {
  cnf::Lit flipped = cnf::kUndefLit;
  auto it = sup.begin();
  for (const cnf::Lit l : sub) {
    // Advance to var(l)'s literal pair (codes 2v, 2v+1 are adjacent).
    const cnf::Lit lo = cnf::pos(l.var());
    while (it != sup.end() && *it < lo) ++it;
    if (it == sup.end()) return cnf::kUndefLit;
    if (*it == l) {
      ++it;
    } else if (*it == ~l) {
      if (flipped.valid()) return cnf::kUndefLit;  // two flips: no resolvent
      flipped = *it;
      ++it;
    } else {
      return cnf::kUndefLit;  // var(l) absent from sup
    }
  }
  return flipped;
}

}  // namespace manthan::sat
