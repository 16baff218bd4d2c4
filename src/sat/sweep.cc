#include "sat/sweep.h"

#include <algorithm>
#include <vector>

#include "support/logging.h"

namespace qb::sat {

namespace {

using bexp::Arena;
using bexp::NodeKind;
using bexp::NodeRef;

/** 64-bit words of random simulation per node: 256 patterns. */
constexpr std::size_t kSimWords = 4;
/** Conflict cap of one candidate call. */
constexpr std::int64_t kCandidateConflicts = 50;
/** Candidates tried per node (each Sat answer refines its class and
 *  allows one more try) before the node is left unmerged. */
constexpr int kRetries = 3;
/** Effort cap per condition: candidate calls plus their conflicts,
 *  per node of the cone. */
constexpr std::int64_t kEffortPerNode = 8;
/** Child index standing for the constant TRUE child of an XOR. */
constexpr std::uint32_t kTrueChild = UINT32_MAX;
/** findRepresentative()'s "no class member". */
constexpr std::uint32_t kNoRepresentative = UINT32_MAX;

/** splitmix64's finalizer: the sweeper's one source of randomness. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Simulation word @p w of input variable @p var.  The patterns depend
 * on the variable id alone, so every sweep of a condition is the same.
 * Uniform random patterns almost never hit the rare points where a
 * carry-like chain differs from its neighbours (every link 0, say), so
 * the words are biased: word 0 is uniform except that pattern 0 sets
 * every input to 0 and pattern 1 every input to 1; words 1 and 3 are
 * sparse, setting each input in exactly one of their 64 patterns
 * (chosen by two different hashes of the id), so most inputs are 0
 * next to each 1; word 2 sets an input with probability 3/4, so wide
 * ANDs come out true.  Later words feed inputs a model did not cover
 * (uniform).
 */
std::uint64_t
inputWord(std::uint32_t var, std::uint64_t w)
{
    const std::uint64_t seed = (std::uint64_t{var} << 24) ^ (w << 4);
    const std::uint64_t x = mix64(seed);
    switch (w) {
      case 0:
        return (x & ~3ULL) | 2ULL;
      case 1:
        return 1ULL << (mix64(var) % 64);
      case 2:
        return x | mix64(seed + 1);
      case 3:
        return 1ULL << (mix64(var ^ 0x5bd1e995ULL) % 64);
      default:
        return x;
    }
}

Lit
flipIf(Lit l, bool flip)
{
    return flip ? ~l : l;
}

/**
 * Structural hash over merged literals: (kind, sorted input literals)
 * -> output literal.  Open addressing over flat arrays, sized once for
 * the cone (one gate per cone node at most, load factor <= 1/2).
 */
class GateTable
{
  public:
    struct Gate
    {
        std::uint32_t begin; ///< key literals: pool[begin, begin+size)
        std::uint32_t size;
        NodeKind kind;
        Lit out;
    };

    explicit GateTable(std::size_t gates)
    {
        std::size_t n = 4;
        while (n < 2 * gates + 2)
            n *= 2;
        slots.assign(n, 0);
    }

    /** The slot holding the gate with this key, or the empty slot
     *  where it belongs (0 = empty, otherwise gate index + 1). */
    std::uint32_t &
    slotOf(NodeKind kind, const LitVec &inputs)
    {
        std::uint64_t h = static_cast<std::uint64_t>(kind);
        for (Lit l : inputs)
            h = mix64(h ^ l.index());
        const std::size_t mask = slots.size() - 1;
        for (std::size_t s = h & mask;; s = (s + 1) & mask) {
            std::uint32_t &slot = slots[s];
            if (slot == 0)
                return slot;
            const Gate &g = gates[slot - 1];
            if (g.kind == kind && g.size == inputs.size() &&
                std::equal(inputs.begin(), inputs.end(),
                           pool.begin() + g.begin))
                return slot;
        }
    }

    /** File a new gate in the empty @p slot; returns its index. */
    std::uint32_t
    insert(std::uint32_t &slot, NodeKind kind, const LitVec &inputs,
           Lit out)
    {
        gates.push_back({static_cast<std::uint32_t>(pool.size()),
                         static_cast<std::uint32_t>(inputs.size()), kind,
                         out});
        pool.insert(pool.end(), inputs.begin(), inputs.end());
        slot = static_cast<std::uint32_t>(gates.size());
        return slot - 1;
    }

    Gate &operator[](std::uint32_t index) { return gates[index]; }

  private:
    std::vector<std::uint32_t> slots;
    std::vector<Gate> gates;
    LitVec pool;
};

/** One sweep: the cone in ascending NodeRef order (children first),
 *  every per-node fact in flat arrays indexed by cone position. */
class Sweeper
{
  public:
    Sweeper(const Arena &arena, NodeRef root, std::int64_t allowance,
            const std::atomic<bool> *stop);

    SweepResult run();

  private:
    void collectCone(NodeRef root);
    bool simulationKeepsRootFalse();
    std::uint64_t simulate(std::uint32_t i, std::size_t w) const;
    Lit childLit(std::uint32_t child) const;
    /** Set lit[i] from the merged children; true when that took a
     *  fresh gate (index in @p gate), the only case worth sweeping. */
    bool encodeAnd(std::uint32_t i, std::uint32_t &gate);
    bool encodeXor(std::uint32_t i, std::uint32_t &gate);
    void addClause(LitVec clause);
    Lit gateVar();
    void sweepNode(std::uint32_t i, std::uint32_t gate);
    bool phase(std::uint32_t i) const { return words[0][i] & 1; }
    bool constantClass(std::uint32_t i) const;
    bool sameClass(std::uint32_t i, std::uint32_t j) const;
    std::size_t bucketOf(std::uint32_t i) const;
    std::uint32_t findRepresentative(std::uint32_t i) const;
    void addRepresentative(std::uint32_t i);
    bool mayCall() const;
    SolveResult call(LitVec assumptions);
    void addModelPatterns(std::uint32_t processed);
    bool stopped() const
    {
        return stop != nullptr && stop->load(std::memory_order_relaxed);
    }

    const Arena &arena;
    const std::atomic<bool> *stop;
    const std::int64_t allowance;
    std::int64_t effortLeft = 0;

    std::vector<NodeRef> cone;
    /** Cone positions of node i's children: kids[kidBegin[i] ..
     *  kidBegin[i+1]), kTrueChild for a constant TRUE child. */
    std::vector<std::uint32_t> kidBegin;
    std::vector<std::uint32_t> kids;
    /** Simulation, word-major: words[w][i] is node i under patterns
     *  64w .. 64w+63.  The first kSimWords words are seeded from the
     *  variable ids; each later one comes from a solver model. */
    std::vector<std::vector<std::uint64_t>> words;
    /** Cone positions of the inputs encoded so far. */
    std::vector<std::uint32_t> inputs;
    /** First input flipped in the next model's neighbourhood. */
    std::size_t nextFlip = 0;

    Solver solver;
    Lit trueLit;
    std::vector<Lit> lit; ///< merged literal of each processed node
    GateTable gates;
    /** Simulation classes: intrusive chains of representatives,
     *  bucketed by their normalized random simulation (index + 1). */
    std::vector<std::uint32_t> heads;
    std::vector<std::uint32_t> nextRep;
    std::size_t clauses = 0;
    std::int64_t merges = 0;
};

Sweeper::Sweeper(const Arena &arena_in, NodeRef root,
                 std::int64_t allowance_in, const std::atomic<bool> *stop_in)
    : arena(arena_in), stop(stop_in), allowance(allowance_in),
      // Incremental use rules out elimination; every call carries
      // its own conflict limit.
      solver(SolverConfig{.preprocess = false, .conflictBudget = -1}),
      gates(0)
{
    collectCone(root);
}

void
Sweeper::collectCone(NodeRef root)
{
    // Every node of the cone is at most root, so one flat array over
    // [0, root] marks visited nodes and then maps them to their cone
    // position (+1); sorting puts children before parents, since the
    // arena interns a node after its children.
    std::vector<std::uint32_t> position(root + 1, 0);
    std::vector<NodeRef> stack{root};
    position[root] = 1;
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        cone.push_back(ref);
        const NodeKind k = arena.kind(ref);
        if (k != NodeKind::And && k != NodeKind::Xor)
            continue;
        for (NodeRef c : arena.children(ref)) {
            if (!arena.isConst(c) && position[c] == 0) {
                position[c] = 1;
                stack.push_back(c);
            }
        }
    }
    std::sort(cone.begin(), cone.end());
    const std::size_t n = cone.size();
    for (std::size_t i = 0; i < n; ++i)
        position[cone[i]] = static_cast<std::uint32_t>(i + 1);
    kidBegin.reserve(n + 1);
    for (NodeRef ref : cone) {
        kidBegin.push_back(static_cast<std::uint32_t>(kids.size()));
        const NodeKind k = arena.kind(ref);
        if (k != NodeKind::And && k != NodeKind::Xor)
            continue;
        for (NodeRef c : arena.children(ref))
            kids.push_back(c == bexp::kTrue ? kTrueChild : position[c] - 1);
    }
    kidBegin.push_back(static_cast<std::uint32_t>(kids.size()));
}

bool
Sweeper::simulationKeepsRootFalse()
{
    const std::size_t n = cone.size();
    words.assign(kSimWords, std::vector<std::uint64_t>(n, 0));
    for (std::uint32_t i = 0; i < n; ++i)
        for (std::size_t w = 0; w < kSimWords; ++w)
            words[w][i] = simulate(i, w);
    for (std::size_t w = 0; w < kSimWords; ++w)
        if (words[w][n - 1] != 0)
            return false;
    return true;
}

std::uint64_t
Sweeper::simulate(std::uint32_t i, std::size_t w) const
{
    // Inputs take their seeded word.  An input first encoded after a
    // model was taken is not in that model, and a seeded value is as
    // good a completion as any.
    const NodeKind k = arena.kind(cone[i]);
    if (k == NodeKind::Var)
        return inputWord(arena.varId(cone[i]), w);
    const bool conj = k == NodeKind::And;
    std::uint64_t acc = conj ? ~0ULL : 0;
    for (std::uint32_t p = kidBegin[i]; p < kidBegin[i + 1]; ++p) {
        const std::uint64_t v =
            kids[p] == kTrueChild ? ~0ULL : words[w][kids[p]];
        acc = conj ? acc & v : acc ^ v;
    }
    return acc;
}

Lit
Sweeper::childLit(std::uint32_t child) const
{
    return child == kTrueChild ? trueLit : lit[child];
}

void
Sweeper::addClause(LitVec clause)
{
    solver.addClause(std::move(clause));
    ++clauses;
}

Lit
Sweeper::gateVar()
{
    // Gate outputs are fully defined over earlier literals, so
    // propagation assigns them once the inputs are set: the solver
    // branches on inputs only, and a model costs one decision per
    // input instead of one per node.
    const Var v = solver.newVar();
    solver.setDecisionVar(v, false);
    return mkLit(v);
}

bool
Sweeper::encodeAnd(std::uint32_t i, std::uint32_t &gate)
{
    LitVec inputs;
    for (std::uint32_t p = kidBegin[i]; p < kidBegin[i + 1]; ++p) {
        const Lit l = childLit(kids[p]);
        if (l == ~trueLit) {
            lit[i] = ~trueLit;
            return false;
        }
        if (l != trueLit)
            inputs.push_back(l);
    }
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    for (std::size_t k = 1; k < inputs.size(); ++k) {
        if (inputs[k] == ~inputs[k - 1]) { // x & ~x sort adjacent
            lit[i] = ~trueLit;
            return false;
        }
    }
    if (inputs.size() <= 1) {
        lit[i] = inputs.empty() ? trueLit : inputs[0];
        return false;
    }
    std::uint32_t &slot = gates.slotOf(NodeKind::And, inputs);
    if (slot != 0) {
        lit[i] = gates[slot - 1].out;
        return false;
    }
    const Lit out = gateVar();
    LitVec wide{out};
    for (Lit l : inputs) {
        addClause({~out, l});
        wide.push_back(~l);
    }
    addClause(std::move(wide));
    gate = gates.insert(slot, NodeKind::And, inputs, out);
    lit[i] = out;
    return true;
}

bool
Sweeper::encodeXor(std::uint32_t i, std::uint32_t &gate)
{
    // Fold constants and complements into one parity bit, key the
    // gate on its positive inputs and cancel equal pairs.
    LitVec inputs;
    bool parity = false;
    for (std::uint32_t p = kidBegin[i]; p < kidBegin[i + 1]; ++p) {
        const Lit l = childLit(kids[p]);
        if (l.var() == trueLit.var()) {
            parity ^= l == trueLit;
            continue;
        }
        parity ^= l.sign();
        inputs.push_back(mkLit(l.var()));
    }
    std::sort(inputs.begin(), inputs.end());
    LitVec kept;
    for (std::size_t k = 0; k < inputs.size();) {
        std::size_t j = k;
        while (j < inputs.size() && inputs[j] == inputs[k])
            ++j;
        if ((j - k) % 2 == 1)
            kept.push_back(inputs[k]);
        k = j;
    }
    if (kept.size() <= 1) {
        lit[i] = flipIf(kept.empty() ? ~trueLit : kept[0], parity);
        return false;
    }
    std::uint32_t &slot = gates.slotOf(NodeKind::Xor, kept);
    if (slot != 0) {
        lit[i] = flipIf(gates[slot - 1].out, parity);
        return false;
    }
    // A chain of two-input XORs: out = acc ^ in forbids the four
    // odd-parity assignments of (out, acc, in).
    Lit acc = kept[0];
    for (std::size_t k = 1; k < kept.size(); ++k) {
        const Lit out = gateVar();
        addClause({~out, acc, kept[k]});
        addClause({~out, ~acc, ~kept[k]});
        addClause({out, ~acc, kept[k]});
        addClause({out, acc, ~kept[k]});
        acc = out;
    }
    gate = gates.insert(slot, NodeKind::Xor, kept, acc);
    lit[i] = flipIf(acc, parity);
    return true;
}

bool
Sweeper::constantClass(std::uint32_t i) const
{
    const std::uint64_t flip = phase(i) ? ~0ULL : 0;
    for (const std::vector<std::uint64_t> &word : words)
        if ((word[i] ^ flip) != 0)
            return false;
    return true;
}

bool
Sweeper::sameClass(std::uint32_t i, std::uint32_t j) const
{
    // Equal up to complement: compare both normalized to pattern 0
    // being false.
    const std::uint64_t flip = phase(i) != phase(j) ? ~0ULL : 0;
    for (const std::vector<std::uint64_t> &word : words)
        if ((word[i] ^ flip) != word[j])
            return false;
    return true;
}

std::size_t
Sweeper::bucketOf(std::uint32_t i) const
{
    const std::uint64_t flip = phase(i) ? ~0ULL : 0;
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < kSimWords; ++w)
        h = mix64(h ^ (words[w][i] ^ flip));
    return h & (heads.size() - 1);
}

std::uint32_t
Sweeper::findRepresentative(std::uint32_t i) const
{
    for (std::uint32_t r = heads[bucketOf(i)]; r != 0; r = nextRep[r - 1])
        if (sameClass(i, r - 1))
            return r - 1;
    return kNoRepresentative;
}

void
Sweeper::addRepresentative(std::uint32_t i)
{
    std::uint32_t &head = heads[bucketOf(i)];
    nextRep[i] = head;
    head = i + 1;
}

bool
Sweeper::mayCall() const
{
    return effortLeft > 0 && !stopped() &&
           (allowance < 0 || solver.stats().conflicts < allowance);
}

SolveResult
Sweeper::call(LitVec assumptions)
{
    std::int64_t limit = kCandidateConflicts;
    const std::int64_t before = solver.stats().conflicts;
    if (allowance >= 0)
        limit = std::min(limit, allowance - before);
    const SolveResult result = solver.solve(assumptions, limit);
    effortLeft -= 1 + (solver.stats().conflicts - before);
    return result;
}

void
Sweeper::addModelPatterns(std::uint32_t processed)
{
    // One word of patterns around the model: bit 0 is the model's own
    // input assignment, bit k > 0 flips one input (distance-1
    // simulation, as in ABC's fraig), so a single SAT answer splits
    // every class the nearby assignments tell apart.  Inputs take
    // turns being flipped from one model to the next.
    const std::size_t w = words.size();
    words.emplace_back(cone.size(), 0);
    std::vector<std::uint64_t> &word = words.back();
    for (std::uint32_t j : inputs)
        word[j] = solver.modelValue(lit[j].var()) == LBool::True ? ~0ULL
                                                                 : 0;
    const std::size_t flips = std::min<std::size_t>(63, inputs.size());
    for (std::size_t k = 0; k < flips; ++k)
        word[inputs[(nextFlip + k) % inputs.size()]] ^= 2ULL << k;
    nextFlip = (nextFlip + flips) % std::max<std::size_t>(1, inputs.size());
    for (std::uint32_t j = 0; j <= processed; ++j)
        if (arena.kind(cone[j]) != NodeKind::Var)
            word[j] = simulate(j, w);
}

void
Sweeper::sweepNode(std::uint32_t i, std::uint32_t gate)
{
    for (int attempt = 0; attempt < kRetries && mayCall(); ++attempt) {
        Lit target;
        const bool constant = constantClass(i);
        if (constant) {
            target = flipIf(trueLit, !phase(i));
        } else {
            const std::uint32_t rep = findRepresentative(i);
            if (rep == kNoRepresentative)
                break;
            target = flipIf(lit[rep], phase(i) != phase(rep));
        }
        // node == target iff neither (node & ~target) nor
        // (~node & target) is satisfiable; for a constant target one
        // of the two is trivially Unsat.
        SolveResult result = constant
            ? call({flipIf(lit[i], target == trueLit)})
            : call({lit[i], ~target});
        if (result == SolveResult::Unsat && !constant)
            result = mayCall() ? call({~lit[i], target})
                               : SolveResult::Unknown;
        if (result == SolveResult::Sat) {
            addModelPatterns(i);
            continue;
        }
        if (result == SolveResult::Unknown)
            break;
        // Proved: route every later use of the node, and of its gate
        // key, to the target.
        addClause({~lit[i], target});
        addClause({lit[i], ~target});
        GateTable::Gate &g = gates[gate];
        g.out = flipIf(target, g.out != lit[i]);
        lit[i] = target;
        ++merges;
        return;
    }
    addRepresentative(i);
}

SweepResult
Sweeper::run()
{
    SweepResult out;
    const std::size_t n = cone.size();
    if (!simulationKeepsRootFalse() || stopped())
        return out; // satisfiable: the direct solve finds the model
    effortLeft = kEffortPerNode * static_cast<std::int64_t>(n);
    std::size_t buckets = 4;
    while (buckets < 2 * n)
        buckets *= 2;
    heads.assign(buckets, 0);
    nextRep.assign(n, 0);
    lit.assign(n, kUndefLit);
    gates = GateTable(n);
    trueLit = mkLit(solver.newVar());
    addClause({trueLit});

    for (std::uint32_t i = 0; i < n; ++i) {
        if (stopped())
            break;
        for (std::size_t w = kSimWords; w < words.size(); ++w)
            words[w][i] = simulate(i, w);
        if (arena.kind(cone[i]) == NodeKind::Var) {
            lit[i] = mkLit(solver.newVar());
            inputs.push_back(i);
            addRepresentative(i);
            continue;
        }
        std::uint32_t gate = 0;
        const bool fresh = arena.kind(cone[i]) == NodeKind::And
            ? encodeAnd(i, gate)
            : encodeXor(i, gate);
        if (fresh)
            sweepNode(i, gate);
    }
#ifdef QB_DEBUG_CHECKS
    solver.checkInvariants();
#endif
    out.stats = solver.stats();
    out.stats.sweepMerges = merges;
    out.vars = static_cast<std::size_t>(solver.numVars());
    out.clauses = clauses;
    if (!stopped() && lit[n - 1] == ~trueLit) {
        out.result = SolveResult::Unsat;
        out.stats.sweptConditions = 1;
    }
    return out;
}

} // namespace

SweepResult
sweep(const bexp::Arena &arena, bexp::NodeRef root,
      std::int64_t conflict_allowance, const std::atomic<bool> *stop)
{
    if (arena.isConst(root)) {
        SweepResult out;
        if (!arena.constValue(root)) {
            out.result = SolveResult::Unsat;
            out.stats.sweptConditions = 1;
        }
        return out;
    }
    return Sweeper(arena, root, conflict_allowance, stop).run();
}

} // namespace qb::sat
