#include "inputs.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "circuits/qbr_text.h"
#include "core/reference.h"
#include "sim/classical.h"
#include "support/rng.h"

namespace qbbench {

using qb::core::Verdict;

const char *
groupName(Group group)
{
    switch (group) {
      case Group::OneShot:      return "oneshot";
      case Group::Cold:         return "cold";
      case Group::ExactRepeat:  return "exact_repeat";
      case Group::OptionRepeat: return "option_repeat";
      case Group::Discharged:   return "discharged";
      case Group::Heavy:        return "heavy";
    }
    return "?";
}

namespace {

/** Programs the generators build with @p dirty verified qubits, all
 *  safely uncomputed by construction. */
Input
safeInput(std::string name, std::string source, Group group,
          std::size_t dirty)
{
    Input in;
    in.name = std::move(name);
    in.source = std::move(source);
    in.group = group;
    in.expected.assign(dirty, Verdict::Safe);
    return in;
}

/** @p count distinct integers from [lo, hi], one per equal-width
 *  stratum, shuffled: every seed covers the whole range evenly. */
std::vector<std::uint32_t>
stratified(qb::Rng &rng, std::uint32_t lo, std::uint32_t hi,
           std::size_t count)
{
    std::vector<std::uint32_t> out;
    const double width = double(hi - lo + 1) / double(count);
    for (std::size_t k = 0; k < count; ++k) {
        const auto first = lo + std::uint32_t(width * double(k));
        const auto last = std::max(
            first, lo + std::uint32_t(width * double(k + 1)) - 1);
        out.push_back(std::uint32_t(rng.nextInRange(first, last)));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

} // namespace

std::vector<Input>
oneShotInputs(const std::string &workload)
{
    std::vector<std::pair<std::string, std::string>> programs;
    if (workload == "mcx-cli") {
        // n = 2m - 1 in {999, 1999}: the paper's MCX family.
        for (std::uint32_t m : {500u, 1000u})
            programs.emplace_back("mcx-n" + std::to_string(2 * m - 1),
                                  qb::circuits::mcxQbrSource(m));
    } else if (workload == "adder-sat") {
        for (std::uint32_t n : {60u, 80u})
            programs.emplace_back("adder-n" + std::to_string(n),
                                  qb::circuits::adderQbrSource(n));
    } else {
        throw std::invalid_argument("unknown one-shot workload " +
                                    workload);
    }
    // Every verified qubit of these programs is safe by construction;
    // elaboration only lists them.
    std::vector<Input> inputs;
    for (auto &[name, source] : programs) {
        const auto dirty = qb::lang::elaborateSource(source).qubitsWithRole(
            qb::lang::QubitRole::BorrowVerify);
        inputs.push_back(safeInput(std::move(name), std::move(source),
                                   Group::OneShot, dirty.size()));
    }
    return inputs;
}

std::vector<Input>
serveMixStream(std::uint64_t seed)
{
    // Per-round request counts.  Latency order at this commit is
    // exact repeat < cold ~ option repeat < discharged < heavy; the
    // shares put p50 inside the cold group and p90 inside the heavy
    // group, each well away from a group boundary.
    constexpr std::size_t kCold = 84;
    constexpr std::size_t kExact = 48;
    constexpr std::size_t kOption = 24;
    constexpr std::size_t kDischargedWide = 24;
    constexpr std::size_t kDischargedMirror = 12;
    constexpr std::size_t kHeavyMcx = 28;
    constexpr std::size_t kHeavyAdder = 20;
    // Repeats follow their original by at least this many requests,
    // so the original has completed (a hit, not a single-flight wait).
    constexpr std::size_t kRepeatGap = 4;
    constexpr std::size_t kOptionWindow = 40;

    qb::Rng rng(seed);
    std::vector<Input> originals;

    // Cold: distinct random programs, known answer by brute force.
    std::set<std::string> seen;
    while (originals.size() < kCold) {
        std::string src = qb::circuits::randomQbrSource(rng);
        if (!seen.insert(src).second)
            continue;
        const qb::lang::ElaboratedProgram prog =
            qb::lang::elaborateSource(src);
        Input in;
        in.name = "random-" + std::to_string(originals.size());
        in.source = std::move(src);
        in.group = Group::Cold;
        for (qb::ir::QubitId q : prog.qubitsWithRole(
                 qb::lang::QubitRole::BorrowVerify)) {
            const auto &info = prog.qubits[q];
            in.expected.push_back(qb::core::bruteForceVerdict(
                prog.circuit.slice(info.scopeBegin, info.scopeEnd), q));
        }
        originals.push_back(std::move(in));
    }
    for (std::uint32_t n : stratified(rng, 128, 512, kDischargedWide))
        originals.push_back(safeInput(
            "wide-linear-n" + std::to_string(n),
            qb::circuits::wideLinearMirrorQbrSource(n), Group::Discharged,
            1));
    for (std::uint32_t m : stratified(rng, 50, 250, kDischargedMirror))
        originals.push_back(safeInput(
            "mirror-mcx-m" + std::to_string(m),
            qb::circuits::mirrorMcxQbrSource(m), Group::Discharged, 1));
    for (std::uint32_t m : stratified(rng, 50, 250, kHeavyMcx))
        originals.push_back(safeInput("mcx-m" + std::to_string(m),
                                      qb::circuits::mcxQbrSource(m),
                                      Group::Heavy, 1));
    for (std::uint32_t n : stratified(rng, 12, 32, kHeavyAdder))
        originals.push_back(safeInput("adder-n" + std::to_string(n),
                                      qb::circuits::adderQbrSource(n),
                                      Group::Heavy, n - 1));
    std::shuffle(originals.begin(), originals.end(), rng);

    // Insert the repeats at seeded positions.  A later insertion only
    // moves requests after it, so a repeat's gap to its target never
    // shrinks.
    std::vector<Input> stream = std::move(originals);
    std::vector<Group> repeats(kExact, Group::ExactRepeat);
    repeats.insert(repeats.end(), kOption, Group::OptionRepeat);
    std::shuffle(repeats.begin(), repeats.end(), rng);
    std::set<std::string> optionRepeated;
    for (Group kind : repeats) {
        // Exact repeats take any earlier original; option repeats a
        // recent cold one, whose program entry is then still cached,
        // so only the result cache misses.
        std::vector<std::size_t> targets;
        std::size_t at = 0;
        while (targets.empty()) {
            at = std::size_t(
                rng.nextInRange(2 * kRepeatGap, std::int64_t(stream.size())));
            const std::size_t lo =
                kind == Group::OptionRepeat && at > kOptionWindow
                    ? at - kOptionWindow
                    : 0;
            for (std::size_t j = lo; j + kRepeatGap <= at; ++j) {
                const Group g = stream[j].group;
                if (kind == Group::OptionRepeat
                        ? g == Group::Cold &&
                              !optionRepeated.count(stream[j].name)
                        : g != Group::ExactRepeat &&
                              g != Group::OptionRepeat)
                    targets.push_back(j);
            }
        }
        Input in = stream[targets[rng.nextBelow(targets.size())]];
        in.group = kind;
        in.noCounterexample = kind == Group::OptionRepeat;
        if (in.noCounterexample)
            optionRepeated.insert(in.name);
        stream.insert(stream.begin() + std::ptrdiff_t(at), std::move(in));
    }
    return stream;
}

std::string
checkVerdicts(const Input &input, const std::vector<Verdict> &verdicts)
{
    if (verdicts.size() != input.expected.size())
        return input.name + ": " + std::to_string(verdicts.size()) +
               " verdicts, expected " +
               std::to_string(input.expected.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i] != input.expected[i])
            return input.name + ": qubit #" + std::to_string(i) + " is " +
                   qb::core::verdictName(verdicts[i]) + ", expected " +
                   qb::core::verdictName(input.expected[i]);
    }
    return "";
}

bool
counterexampleHolds(const qb::lang::ElaboratedProgram &program,
                    qb::ir::QubitId q, const std::vector<bool> &cex)
{
    const auto &info = program.qubits.at(q);
    const qb::ir::Circuit scope =
        program.circuit.slice(info.scopeBegin, info.scopeEnd);
    if (cex.size() != scope.numQubits())
        return false;
    // Theorem 6.2: q is safely uncomputed iff it is restored on every
    // input and no other output depends on it.  A witness breaks one.
    qb::sim::ClassicalState base(scope.numQubits());
    for (std::uint32_t i = 0; i < scope.numQubits(); ++i)
        base.set(i, cex[i]);
    qb::sim::ClassicalState flipped = base;
    flipped.set(q, !cex[q]);
    base.applyCircuit(scope);
    flipped.applyCircuit(scope);
    if (base.get(q) != cex[q] || flipped.get(q) == cex[q])
        return true;
    for (std::uint32_t i = 0; i < scope.numQubits(); ++i) {
        if (i != q && base.get(i) != flipped.get(i))
            return true;
    }
    return false;
}

} // namespace qbbench
