#include "cnf/cnf.hpp"

#include <algorithm>
#include <sstream>

namespace manthan::cnf {

void Assignment::resize(std::size_t n, bool value) {
  const std::size_t old_size = size_;
  words_.resize((n + 63) / 64, value ? ~0ULL : 0);
  size_ = n;
  if (n > old_size && value && (old_size & 63) != 0) {
    // The formerly last word gains set bits above the old size.
    words_[old_size >> 6] |= ~((1ULL << (old_size & 63)) - 1);
  }
  // Keep the bits above size() zero (both after shrinking and after
  // growing with value = true).
  if (!words_.empty()) words_.back() &= tail_mask();
}

void CnfFormula::add_clause(Clause clause) {
  for (const Lit l : clause) {
    assert(l.valid());
    ensure_vars(l.var() + 1);
  }
  clauses_.push_back(std::move(clause));
}

void CnfFormula::append(const CnfFormula& other) {
  ensure_vars(other.num_vars());
  clauses_.insert(clauses_.end(), other.clauses_.begin(),
                  other.clauses_.end());
}

bool CnfFormula::satisfied_by(const Assignment& a) const {
  for (const Clause& c : clauses_) {
    const bool sat = std::any_of(c.begin(), c.end(),
                                 [&](Lit l) { return a.value(l); });
    if (!sat) return false;
  }
  return true;
}

std::string CnfFormula::to_string() const {
  std::ostringstream os;
  os << "p cnf " << num_vars_ << ' ' << clauses_.size() << '\n';
  for (const Clause& c : clauses_) {
    for (const Lit l : c) os << l.to_dimacs() << ' ';
    os << "0\n";
  }
  return os.str();
}

void add_equivalence(CnfFormula& out, Lit lhs, Lit rhs) {
  out.add_binary(~lhs, rhs);
  out.add_binary(lhs, ~rhs);
}

void add_fixed(CnfFormula& out, Lit lhs, bool value) {
  out.add_unit(lhs ^ !value);
}

}  // namespace manthan::cnf
