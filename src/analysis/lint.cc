#include "analysis/lint.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "analysis/dataflow.h"
#include "analysis/mirror.h"
#include "analysis/permutation.h"
#include "lang/parser.h"
#include "support/logging.h"
#include "support/strings.h"

namespace qb::analysis {

namespace {

/** Collect every register name released anywhere under @p body. */
void
collectReleases(const std::vector<lang::Stmt> &body,
                std::set<std::string> &out)
{
    for (const lang::Stmt &stmt : body) {
        if (const auto *rel =
                std::get_if<lang::ReleaseStmt>(&stmt.node)) {
            out.insert(rel->name);
        } else if (const auto *loop =
                       std::get_if<lang::ForStmt>(&stmt.node)) {
            collectReleases(loop->body, out);
        } else if (const auto *cond =
                       std::get_if<lang::IfStmt>(&stmt.node)) {
            collectReleases(cond->thenBody, out);
            collectReleases(cond->elseBody, out);
        } else if (const auto *loop =
                       std::get_if<lang::WhileStmt>(&stmt.node)) {
            collectReleases(loop->body, out);
        }
    }
}

/** path-divergent-release over every `if` under @p body. */
void
lintPathDivergentRelease(const std::vector<lang::Stmt> &body,
                         std::vector<Diagnostic> &out)
{
    for (const lang::Stmt &stmt : body) {
        if (const auto *cond =
                std::get_if<lang::IfStmt>(&stmt.node)) {
            std::set<std::string> then_released, else_released;
            collectReleases(cond->thenBody, then_released);
            collectReleases(cond->elseBody, else_released);
            const auto report = [&](const std::string &name,
                                    const char *path,
                                    const char *other) {
                Diagnostic d;
                d.severity = Severity::Warning;
                d.rule = "path-divergent-release";
                d.loc = stmt.loc;
                d.message = format(
                    "register '%s' is released in the %s branch but "
                    "stays live on the %s path; writes made there "
                    "are never restored by a release",
                    name.c_str(), path, other);
                out.push_back(std::move(d));
            };
            for (const std::string &name : then_released)
                if (!else_released.count(name))
                    report(name, "then", "else");
            for (const std::string &name : else_released)
                if (!then_released.count(name))
                    report(name, "else", "then");
            lintPathDivergentRelease(cond->thenBody, out);
            lintPathDivergentRelease(cond->elseBody, out);
        } else if (const auto *loop =
                       std::get_if<lang::ForStmt>(&stmt.node)) {
            lintPathDivergentRelease(loop->body, out);
        } else if (const auto *loop =
                       std::get_if<lang::WhileStmt>(&stmt.node)) {
            lintPathDivergentRelease(loop->body, out);
        }
    }
}

bool
isBorrowRole(lang::QubitRole role)
{
    return role == lang::QubitRole::BorrowVerify ||
           role == lang::QubitRole::BorrowSkip;
}

/** Source location of gate @p i, default when locations are absent
 *  (programmatically built ElaboratedPrograms). */
lang::SourceLoc
gateLoc(const lang::ElaboratedProgram &program, std::size_t i)
{
    return i < program.gateLocs.size() ? program.gateLocs[i]
                                       : lang::SourceLoc{};
}

void
lintUnusedBorrows(const lang::ElaboratedProgram &program,
                  std::vector<Diagnostic> &out)
{
    // One pass over the gates: a qubit is used when some gate of its
    // lifetime touches it.
    const auto &gates = program.circuit.gates();
    std::vector<bool> used(program.qubits.size(), false);
    for (std::size_t i = 0; i < gates.size(); ++i)
        for (const ir::QubitId w : gates[i].qubits())
            if (w < used.size() && program.qubits[w].scopeBegin <= i &&
                i < program.qubits[w].scopeEnd)
                used[w] = true;
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (!isBorrowRole(info.role) || used[q])
            continue;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "unused-borrow";
        d.loc = info.loc;
        d.message = format(
            "borrowed qubit '%s' is never used; drop the borrow "
            "or narrow the register",
            info.name.c_str());
        out.push_back(std::move(d));
    }
}

/** Wire name for diagnostics; gate operands always map to declared
 *  qubits in elaborated programs, but stay defensive. */
std::string
wireName(const lang::ElaboratedProgram &program, ir::QubitId q)
{
    return q < program.qubits.size() ? program.qubits[q].name
                                     : format("q%u", q);
}

void
lintRedundantGates(const lang::ElaboratedProgram &program,
                   std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    const std::uint32_t n = program.circuit.numQubits();
    std::vector<bool> covered(gates.size(), false);

    // Pass 1: GF(2)-affine boundary scan.  The UNSEEDED affine state
    // (no alloc constants) with no ⊤ wire describes an invertible
    // affine map of ALL wires; two equal ⊤-free boundary states
    // therefore certify that the gates between them compose to the
    // identity on EVERY input - the generalization of the old
    // adjacent-cancelling-pair rule to arbitrary linear blocks.
    // Candidate matches come from the incremental state hash and are
    // confirmed by recomputing the earlier boundary (rare).
    AffineState state(n);
    std::unordered_map<std::uint64_t, std::size_t> earliest;
    earliest.emplace(state.hash(), 0);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        state.applyGate(gates[i]);
        if (state.anyTop())
            break; // ⊤ is sticky: no later boundary can certify
        const std::size_t boundary = i + 1;
        bool matched = false;
        const auto it = earliest.find(state.hash());
        if (it != earliest.end()) {
            AffineState probe(n);
            for (std::size_t g = 0; g < it->second; ++g)
                probe.applyGate(gates[g]);
            matched = probe == state;
            if (matched) {
                const std::size_t begin = it->second;
                for (std::size_t g = begin; g < boundary; ++g)
                    covered[g] = true;
                Diagnostic d;
                d.severity = Severity::Warning;
                d.rule = "redundant-gate";
                d.loc = gateLoc(program, begin);
                d.message = format(
                    "gates through %s compose to the identity on "
                    "every input; the %zu-gate block is a no-op",
                    gateLoc(program, boundary - 1)
                        .toString()
                        .c_str(),
                    boundary - begin);
                out.push_back(std::move(d));
                earliest.clear();
            }
        }
        if (!matched || earliest.empty())
            earliest.emplace(state.hash(), boundary);
    }

    // Pass 2: the exact-pair rule for the nonlinear gates the affine
    // certificate cannot reach (CCNOT/MCX drive their target to ⊤).
    // A self-inverse classical gate whose NEXT wire-touching gate is
    // an identical copy composes with it to the identity.
    std::vector<bool> dead = covered;
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (dead[i] || !selfInverseClassical(gates[i]))
            continue;
        std::size_t next = gates.size();
        for (std::size_t j = i + 1; j < gates.size() &&
                                    next == gates.size(); ++j)
            for (const ir::QubitId w : gates[i].qubits())
                if (gates[j].touches(w)) {
                    next = j;
                    break;
                }
        if (next == gates.size() || dead[next] ||
            !(gates[next] == gates[i]))
            continue;
        dead[i] = dead[next] = true;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "redundant-gate";
        d.loc = gateLoc(program, i);
        d.message = format(
            "gate cancels with the identical gate at %s; both are "
            "no-ops",
            gateLoc(program, next).toString().c_str());
        out.push_back(std::move(d));
    }
}

void
lintControlAlwaysConstant(const lang::ElaboratedProgram &program,
                          std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    const std::size_t n = program.circuit.numQubits();
    // Constants domain SEEDED with |0> at each alloc's scope entry:
    // catches both reads-before-first-write (the old read-before-init
    // shape) and constants re-derived mid-circuit by linear
    // cancellation, on any wire role.
    ConstantState state(static_cast<std::uint32_t>(n));
    std::vector<std::vector<ir::QubitId>> seed_at(gates.size() + 1);
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (info.role == lang::QubitRole::Alloc &&
            info.scopeBegin <= gates.size())
            seed_at[info.scopeBegin].push_back(
                static_cast<ir::QubitId>(q));
    }
    std::vector<bool> reported(n, false);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        for (const ir::QubitId q : seed_at[i])
            state.setKnown(q, false);
        const ir::Gate &gate = gates[i];
        const bool x_family = gate.kind() == ir::GateKind::X ||
                              gate.kind() == ir::GateKind::CNOT ||
                              gate.kind() == ir::GateKind::CCNOT ||
                              gate.kind() == ir::GateKind::MCX;
        for (const ir::QubitId c :
             x_family ? gate.controls()
                      : std::span<const ir::QubitId>{}) {
            const std::optional<bool> v = state.value(c);
            if (!v || reported[c])
                continue;
            reported[c] = true;
            Diagnostic d;
            d.severity = Severity::Warning;
            d.rule = "control-always-constant";
            d.loc = gateLoc(program, i);
            d.message = *v
                ? format("control '%s' is provably |1> here on every "
                         "input; it is always satisfied - drop the "
                         "control",
                         wireName(program, c).c_str())
                : format("control '%s' is provably |0> here on every "
                         "input; the gate never fires",
                         wireName(program, c).c_str());
            out.push_back(std::move(d));
        }
        state.applyGate(gate);
    }
}

void
lintQubitNeverRead(const lang::ElaboratedProgram &program,
                   std::vector<Diagnostic> &out)
{
    const auto &gates = program.circuit.gates();
    // Backward liveness seeded with every borrowed wire (their final
    // values escape to the owner).  An alloc'd qubit dead at EVERY
    // boundary of its scope is never observed - not by a control, not
    // by a non-classical gate, and never (even via Swaps) flowing
    // into an escaping wire - so all writes into it are wasted work.
    // A wire's liveness changes only at gates touching it, so it is
    // live at some boundary of [scopeBegin, last] iff it is live at
    // `last` or just before a gate of that range touching it: one
    // backward sweep checks both without keeping a per-boundary trace.
    const std::size_t num = program.qubits.size();
    LivenessState state(program.circuit.numQubits());
    std::vector<std::size_t> last(num, 0);
    std::vector<std::vector<ir::QubitId>> ends_at(gates.size() + 1);
    for (std::size_t q = 0; q < num; ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (isBorrowRole(info.role)) {
            state.setLive(static_cast<ir::QubitId>(q));
        } else if (info.role == lang::QubitRole::Alloc) {
            last[q] = std::min(info.scopeEnd, gates.size());
            if (info.scopeBegin <= last[q])
                ends_at[last[q]].push_back(static_cast<ir::QubitId>(q));
        }
    }
    std::vector<bool> live(num, false);
    for (std::size_t i = gates.size();; --i) {
        for (const ir::QubitId q : ends_at[i])
            if (state.isLive(q))
                live[q] = true;
        if (i == 0)
            break;
        const ir::Gate &gate = gates[i - 1];
        LivenessDomain::transferBackward(gate, state);
        for (const ir::QubitId w : gate.qubits())
            if (w < num &&
                program.qubits[w].role == lang::QubitRole::Alloc &&
                program.qubits[w].scopeBegin < i && i - 1 < last[w] &&
                state.isLive(w))
                live[w] = true;
    }
    for (std::size_t q = 0; q < num; ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (info.role != lang::QubitRole::Alloc || live[q])
            continue;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.rule = "qubit-never-read";
        d.loc = info.loc;
        d.message = format(
            "clean qubit '%s' is never read: no gate observes its "
            "value and it never flows into an escaping wire",
            info.name.c_str());
        out.push_back(std::move(d));
    }
}

void
lintBorrowNotRestored(const lang::ElaboratedProgram &program,
                      const LintOptions &options,
                      std::vector<Diagnostic> &out)
{
    // The borrows of one scope share its gate range, classical flag,
    // writer index and affine final, so those are computed once per
    // distinct (scopeBegin, scopeEnd), one scope at a time, and each
    // qubit pays only for its own cone.
    const auto &gates = program.circuit.gates();
    const std::uint32_t n = program.circuit.numQubits();
    std::vector<std::size_t> borrows;
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        if (isBorrowRole(info.role) && info.scopeBegin < info.scopeEnd)
            borrows.push_back(q);
    }
    const auto scopeOf = [&](std::size_t q) {
        return std::pair(program.qubits[q].scopeBegin,
                         program.qubits[q].scopeEnd);
    };
    std::stable_sort(borrows.begin(), borrows.end(),
                     [&](std::size_t a, std::size_t b) {
                         return scopeOf(a) < scopeOf(b);
                     });
    std::vector<std::pair<std::size_t, Diagnostic>> found;
    for (std::size_t first = 0, last; first < borrows.size();
         first = last) {
        const auto [begin, end] = scopeOf(borrows[first]);
        last = first + 1;
        while (last < borrows.size() &&
               scopeOf(borrows[last]) == scopeOf(borrows[first]))
            ++last;
        qbAssert(end <= gates.size(), "borrow scope out of bounds");
        const std::span<const ir::Gate> lifetime =
            std::span<const ir::Gate>(gates).subspan(begin, end - begin);
        if (!std::all_of(lifetime.begin(), lifetime.end(),
                         [](const ir::Gate &g) {
                             return g.isClassical();
                         }))
            continue;
        const WriterIndex writers(lifetime, n);
        std::optional<AffineState> final;
        for (std::size_t i = first; i < last; ++i) {
            const std::size_t q = borrows[i];
            const lang::QubitInfo &info = program.qubits[q];
            const ir::QubitId wire = static_cast<ir::QubitId>(q);
            const PermutationVerdict verdict = permutationCheck(
                lifetime, writers, wire, options.permutationWindow);
            bool not_restored =
                verdict == PermutationVerdict::NotRestored;
            if (verdict == PermutationVerdict::TooWide) {
                // Cone wider than the window: fall back to the
                // window-free affine proof.  An UNSEEDED ⊤-free final
                // row for q that is neither q itself nor poisoned is
                // an exact function description differing from q, so
                // some initial assignment is provably changed - the
                // same certificate the 2^k sweep gives, without the
                // width bound.
                if (!final)
                    final = runForward<AffineDomain>(lifetime,
                                                     AffineState(n));
                not_restored =
                    !final->isTop(wire) && !final->isIdentity(wire);
            }
            if (!not_restored)
                continue;
            // Exact, not heuristic: the lifetime circuit is a
            // reversible classical map F with b_q != q as functions,
            // so either some input with q=0 ends with q=1 ((6.1)
            // satisfiable) or - when b_q ignores q yet differs from
            // it - flipping q flips which inputs collide, forcing
            // another output to depend on q ((6.2) satisfiable).
            // Unsafe by Theorem 6.4 either way.
            Diagnostic d;
            d.severity = info.role == lang::QubitRole::BorrowVerify
                ? Severity::Error
                : Severity::Warning;
            d.rule = "borrow-not-restored";
            d.loc = info.loc;
            d.message = format(
                "borrowed qubit '%s' is written without restoration: "
                "some initial value is provably changed by its "
                "lifetime circuit%s",
                info.name.c_str(),
                info.role == lang::QubitRole::BorrowSkip
                    ? " (verification waived by borrow@)"
                    : "");
            found.emplace_back(q, std::move(d));
        }
    }
    // Qubit-index order: the qubits of one `borrow q[n];` share a
    // source location, and the position sort keeps this order.
    std::sort(found.begin(), found.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (auto &entry : found)
        out.push_back(std::move(entry.second));
}

ProgramMetrics
computeMetrics(const lang::ElaboratedProgram &program)
{
    ProgramMetrics m;
    m.gateCount = program.circuit.size();
    m.depth = program.circuit.depth();
    m.qubits = program.circuit.numQubits();
    // Peak borrow liveness: sweep lifetime begin/end events in gate
    // order, ends before begins at equal positions.
    std::vector<std::pair<std::size_t, int>> events;
    for (const lang::QubitInfo &info : program.qubits) {
        if (!isBorrowRole(info.role) ||
            info.scopeBegin >= info.scopeEnd)
            continue;
        events.emplace_back(info.scopeBegin, +1);
        events.emplace_back(info.scopeEnd, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    std::size_t live = 0;
    for (const auto &[pos, delta] : events) {
        (void)pos;
        if (delta > 0)
            m.borrowPressure = std::max(m.borrowPressure, ++live);
        else
            --live;
    }
    return m;
}

} // namespace

std::size_t
LintResult::errorCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Error)
            ++n;
    return n;
}

std::size_t
LintResult::warningCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Warning)
            ++n;
    return n;
}

void
lintAst(const lang::Program &program, std::vector<Diagnostic> &out)
{
    lintPathDivergentRelease(program.statements, out);
}

void
lintElaborated(const lang::ElaboratedProgram &program,
               const LintOptions &options, LintResult &out)
{
    lintUnusedBorrows(program, out.diagnostics);
    lintRedundantGates(program, out.diagnostics);
    lintControlAlwaysConstant(program, out.diagnostics);
    lintQubitNeverRead(program, out.diagnostics);
    lintBorrowNotRestored(program, options, out.diagnostics);
    out.metrics = computeMetrics(program);
    out.elaborated = true;
}

void
sortDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::stable_sort(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.loc.line != b.loc.line)
                             return a.loc.line < b.loc.line;
                         return a.loc.column < b.loc.column;
                     });
}

LintResult
lintSource(const std::string &source, const LintOptions &options)
{
    const lang::Program ast = lang::parse(source);
    LintResult result;
    lintAst(ast, result.diagnostics);
    try {
        const lang::ElaboratedProgram program = lang::elaborate(ast);
        lintElaborated(program, options, result);
    } catch (const FatalError &e) {
        // Measurement-guarded (and otherwise unelaborable) programs
        // keep their AST diagnostics; record why the IR layer is
        // missing.
        result.elaborated = false;
        result.elaborationError = e.what();
    }
    sortDiagnostics(result.diagnostics);
    return result;
}

std::string
renderLintText(const LintResult &result,
               const std::string &program_name)
{
    std::string out;
    for (const Diagnostic &d : result.diagnostics)
        out += program_name + ":" + d.toString() + "\n";
    if (result.elaborated) {
        out += format(
            "%s: %zu gate(s), depth %zu, %zu qubit(s), borrow "
            "pressure %zu; %zu error(s), %zu warning(s)\n",
            program_name.c_str(), result.metrics.gateCount,
            result.metrics.depth, result.metrics.qubits,
            result.metrics.borrowPressure, result.errorCount(),
            result.warningCount());
    } else {
        out += format(
            "%s: AST rules only (not elaborable: %s); %zu error(s), "
            "%zu warning(s)\n",
            program_name.c_str(), result.elaborationError.c_str(),
            result.errorCount(), result.warningCount());
    }
    return out;
}

std::string
lintToJson(const LintResult &result, const std::string &program_name)
{
    std::string out = "{\n";
    if (program_name.empty())
        out += "  \"program\": null,\n";
    else
        out += format("  \"program\": \"%s\",\n",
                      jsonEscape(program_name).c_str());
    out += format("  \"elaborated\": %s,\n",
                  result.elaborated ? "true" : "false");
    if (!result.elaborated)
        out += format("  \"elaboration_error\": \"%s\",\n",
                      jsonEscape(result.elaborationError).c_str());
    out += format("  \"errors\": %zu,\n", result.errorCount());
    out += format("  \"warnings\": %zu,\n", result.warningCount());
    if (result.elaborated) {
        out += format(
            "  \"metrics\": {\"gates\": %zu, \"depth\": %zu, "
            "\"qubits\": %zu, \"borrow_pressure\": %zu},\n",
            result.metrics.gateCount, result.metrics.depth,
            result.metrics.qubits, result.metrics.borrowPressure);
    } else {
        out += "  \"metrics\": null,\n";
    }
    out += "  \"diagnostics\": [";
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        const Diagnostic &d = result.diagnostics[i];
        out += i > 0 ? ",\n    " : "\n    ";
        out += format("{\"severity\": \"%s\", \"rule\": \"%s\", "
                      "\"line\": %d, \"column\": %d, "
                      "\"message\": \"%s\"}",
                      severityName(d.severity), d.rule.c_str(),
                      d.loc.line, d.loc.column,
                      jsonEscape(d.message).c_str());
    }
    if (!result.diagnostics.empty())
        out += "\n  ";
    out += "]\n}\n";
    return out;
}

} // namespace qb::analysis
