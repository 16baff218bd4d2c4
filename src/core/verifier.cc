#include "core/verifier.h"

#include "core/engine.h"
#include "support/strings.h"

namespace qb::core {

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Safe:          return "safe";
      case Verdict::Unsafe:        return "unsafe";
      case Verdict::Unknown:       return "unknown";
      case Verdict::NotClassical:  return "not-classical";
    }
    return "?";
}

namespace {

EngineOptions
sessionOptions(const VerifierOptions &options)
{
    EngineOptions o;
    o.lane = options;
    return o;
}

} // namespace

// The free functions below are the original one-shot API, kept as the
// compatibility surface.  Each one is a thin wrapper that spins up a
// VerificationEngine session for exactly one qubit; code with more
// than one qubit to verify should hold on to an engine instead and let
// it reuse the arena and the circuit's formulas across qubits (see
// core/engine.h).  Every condition is decided in its own solver either
// way.

QubitResult
verifyQubit(const ir::Circuit &circuit, ir::QubitId q,
            const VerifierOptions &options)
{
    VerificationEngine engine(circuit, sessionOptions(options));
    return engine.verify(q);
}

bool
ProgramResult::allSafe() const
{
    for (const QubitResult &r : qubits)
        if (r.verdict != Verdict::Safe)
            return false;
    return true;
}

std::string
ProgramResult::summary() const
{
    std::size_t safe = 0, unsafe = 0, other = 0;
    for (const QubitResult &r : qubits) {
        if (r.verdict == Verdict::Safe)
            ++safe;
        else if (r.verdict == Verdict::Unsafe)
            ++unsafe;
        else
            ++other;
    }
    return format("%zu dirty qubit(s): %zu safe, %zu unsafe, "
                  "%zu undecided (%.3f s)",
                  qubits.size(), safe, unsafe, other, totalSeconds);
}

QubitResult
verifyCleanAncilla(const ir::Circuit &circuit, ir::QubitId q,
                   const VerifierOptions &options)
{
    VerificationEngine engine(circuit, sessionOptions(options));
    return engine.verifyCleanAncilla(q);
}

ProgramResult
verifyProgram(const lang::ElaboratedProgram &program,
              const VerifierOptions &options,
              bool check_clean_ancillas)
{
    return verifyAll(program, sessionOptions(options), {},
                     check_clean_ancillas);
}

ProgramResult
verifySource(const std::string &source, const VerifierOptions &options)
{
    return verifyProgram(lang::elaborateSource(source), options);
}

} // namespace qb::core
