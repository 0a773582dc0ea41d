// Canonical 128-bit fingerprints of DQBF specifications.
//
// The synthesis service caches certified results across requests; the key
// must identify a *specification*, not a particular serialization of it.
// fingerprint(formula) is therefore stable under
//   * clause reordering and literal reordering within clauses,
//   * variable renaming within quantifier roles (any bijection that maps
//     universals to universals and existentials to existentials while
//     carrying the dependency sets along),
// and sensitive to everything semantic: the clause set, the quantifier
// partition, and every Henkin dependency set.
//
// Construction (on top of cnf/canonical.hpp): variables start from
// role/occurrence colors, are refined over the clause incidence graph
// with the dependency bipartite graph folded into every round (an
// existential sees the multiset of its dependencies' colors, a universal
// the multiset of colors of the existentials that may observe it), and
// the stabilized coloring labels a commutative clause-set hash combined
// with a commutative dependency-structure hash. Two independent hash
// planes give the 128 bits.
//
// Like every fingerprint scheme, equality is evidence, not proof: WL
// refinement can merge non-isomorphic specs and 128 bits can collide.
// The service certifies each vector once, on the cold solve that fills
// the cache; a tier-1 hit is never re-checked against the request that
// hits it. So a merged or colliding spec is served the other spec's
// answer. Even an exact isomorphic hit is served the filling spec's
// cones over that spec's own variable ids, which the renamed request
// does not share: the fingerprint identifies the spec up to renaming,
// but nothing maps the answer through the renaming (an open bug).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dqbf/dqbf.hpp"

namespace manthan::dqbf {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

/// Hasher for unordered_map keys (the halves are already well-mixed).
struct FingerprintHasher {
  std::size_t operator()(const Fingerprint& fp) const {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// 32 hex digits, hi half first — for logs and result JSON.
std::string to_string(const Fingerprint& fp);

/// Canonicalization of a spec: the service computes this once per
/// request and keys its result cache by it.
struct CanonicalForm {
  /// The whole specification.
  Fingerprint spec;
};

CanonicalForm canonicalize(const DqbfFormula& formula);

/// Shorthand for canonicalize(formula).spec.
Fingerprint fingerprint(const DqbfFormula& formula);

}  // namespace manthan::dqbf
