// CNF formulas and total/partial assignments.
//
// CnfFormula is the common currency between the DQBF container, the SAT /
// MaxSAT solvers, the sampler, and the Tseitin encoder.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "cnf/lit.hpp"

namespace manthan::cnf {

using Clause = std::vector<Lit>;

/// A complete assignment over variables [0, size), packed 64 values per
/// word: variable v is bit (v % 64) of word v / 64. Bits at positions
/// >= size() in the last word are always zero, so equal assignments have
/// equal words and fingerprints can hash whole words.
class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(std::size_t num_vars, bool value = false) {
    resize(num_vars, value);
  }

  std::size_t size() const { return size_; }
  void resize(std::size_t n, bool value = false);

  bool value(Var v) const {
    const auto i = static_cast<std::size_t>(v);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(Var v, bool value) {
    const auto i = static_cast<std::size_t>(v);
    const std::uint64_t bit = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }
  /// Overwrite word `i` (variables 64i .. 64i+63) at once. Bits at
  /// positions >= size() must be zero.
  void set_word(std::size_t i, std::uint64_t word) {
    assert(i + 1 < words_.size() || (word & ~tail_mask()) == 0);
    words_[i] = word;
  }

  /// Truth value of a literal under this assignment.
  bool value(Lit l) const { return value(l.var()) != l.negated(); }

  bool operator==(const Assignment& o) const {
    return size_ == o.size_ && words_ == o.words_;
  }

  /// The packed values: ceil(size() / 64) words.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  /// Valid-bit mask of the last word.
  std::uint64_t tail_mask() const {
    const std::size_t rem = size_ & 63;
    return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A CNF formula: clause list plus a variable count.
class CnfFormula {
 public:
  CnfFormula() = default;
  explicit CnfFormula(Var num_vars) : num_vars_(num_vars) {}

  Var num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return clauses_.size(); }

  /// Allocate a fresh variable and return it.
  Var new_var() { return num_vars_++; }
  /// Ensure at least `n` variables exist.
  void ensure_vars(Var n) {
    if (n > num_vars_) num_vars_ = n;
  }

  void add_clause(Clause clause);
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

  /// Append all clauses of `other` (same variable numbering).
  void append(const CnfFormula& other);

  const std::vector<Clause>& clauses() const { return clauses_; }
  const Clause& clause(std::size_t i) const { return clauses_[i]; }

  /// True iff the assignment satisfies every clause.
  bool satisfied_by(const Assignment& a) const;

  /// Human-readable dump for debugging and error messages.
  std::string to_string() const;

 private:
  Var num_vars_ = 0;
  std::vector<Clause> clauses_;
};

/// Encode (lhs <-> rhs) as two binary clauses into `out`.
void add_equivalence(CnfFormula& out, Lit lhs, Lit rhs);

/// Encode (lhs <-> value) as a unit clause into `out`.
void add_fixed(CnfFormula& out, Lit lhs, bool value);

}  // namespace manthan::cnf
