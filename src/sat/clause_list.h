/**
 * @file
 * Clauses stored back to back in one literal vector.
 *
 * A plain clause list with no watch or arena bookkeeping: appending a
 * clause costs an amortized copy of its literals instead of one heap
 * allocation per clause.  Bounded variable elimination keeps its
 * working clause set and the clauses it saves for model
 * reconstruction in these.
 */

#ifndef QB_SAT_CLAUSE_LIST_H
#define QB_SAT_CLAUSE_LIST_H

#include <cstdint>
#include <span>
#include <vector>

#include "sat/literal.h"

namespace qb::sat {

class ClauseList
{
  public:
    std::size_t size() const { return ends.size(); }

    /** Literals of clause @p i, valid until the next append. */
    std::span<const Lit> operator[](std::size_t i) const
    {
        const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
        return {lits.data() + begin, lits.data() + ends[i]};
    }

    /** Add @p l to the open clause (the one the next close() ends). */
    void push(Lit l) { lits.push_back(l); }
    /** End the open clause: it becomes clause size() - 1. */
    void close() { ends.push_back(static_cast<std::uint32_t>(lits.size())); }
    /** Drop the open clause's literals. */
    void discard() { lits.resize(ends.empty() ? 0 : ends.back()); }

    /** Append @p clause, which must not point into this list. */
    void add(std::span<const Lit> clause)
    {
        lits.insert(lits.end(), clause.begin(), clause.end());
        close();
    }

    void clear()
    {
        lits.clear();
        ends.clear();
    }

  private:
    LitVec lits;
    /** One past the last literal of each clause. */
    std::vector<std::uint32_t> ends;
};

} // namespace qb::sat

#endif // QB_SAT_CLAUSE_LIST_H
