#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/vec.h"
#include "common/word_vector.h"
#include "sim/dense_core.h"
#include "sim/exec_core.h"
#include "sim/hot_dfa.h"
#include "sim/profiler.h"
#include "sim/session.h"
#include "telemetry/metrics.h"

namespace sparseap {

namespace {

/**
 * Fold one finished run into the engine.* counters. Called once per
 * run (never per symbol), so the stepping loops stay free of registry
 * traffic; dense-path internals come from the core's per-run StepStats.
 */
void
recordRun(const SimResult &result, size_t cycles,
          const DenseCore *dense, bool handover)
{
    static telemetry::Counter runs("engine.runs");
    static telemetry::Counter cycle_count("engine.cycles");
    static telemetry::Counter reports("engine.reports");
    static telemetry::Counter dense_runs("engine.dense_runs");
    static telemetry::Counter handovers("engine.dense_handovers");
    static telemetry::Counter dense_cycles("engine.dense_cycles");
    static telemetry::Counter skip_cycles("engine.dense_skip_cycles");
    static telemetry::Counter live_words("engine.dense_live_words");
    static telemetry::Counter dfa_runs("engine.dfa_runs");
    static telemetry::Counter dfa_cycles("engine.dfa_cycles");
    static telemetry::Counter skip_symbols("engine.input_skip_symbols");
    static telemetry::Counter skip_jumps("engine.input_skip_jumps");
    static telemetry::Gauge simd_isa("engine.simd_isa");

    runs.add(1);
    cycle_count.add(cycles);
    reports.add(result.reports.size());
    simd_isa.set(static_cast<int64_t>(simd::activeIsa()));
    if (result.skippedSymbols != 0) {
        skip_symbols.add(result.skippedSymbols);
        skip_jumps.add(result.skipJumps);
    }
    if (result.usedDfa) {
        dfa_runs.add(1);
        dfa_cycles.add(cycles);
    }
    if (result.usedDenseCore && dense) {
        dense_runs.add(1);
        if (handover)
            handovers.add(1);
        const DenseCore::StepStats &ds = dense->stepStats();
        dense_cycles.add(ds.cycles);
        skip_cycles.add(ds.skipCycles);
        live_words.add(ds.liveWords);
    }
}

} // namespace

Engine::Engine(const FlatAutomaton &fa)
    : Engine(fa, globalOptions().engineMode)
{
}

Engine::Engine(const FlatAutomaton &fa, EngineMode mode)
    : fa_(fa), mode_(mode), skip_enabled_(globalOptions().inputSkip)
{
    SessionConfig config;
    config.mode = mode;
    session_ = std::make_unique<EngineSession>(fa, config);
}

Engine::~Engine() = default;

bool
Engine::prefersDense(size_t states, uint64_t probeWork)
{
    return states >= kMinDenseStates &&
           probeWork >= static_cast<uint64_t>(kProbeCycles) *
                            kDenseWorkPerWord * wordsForBits(states);
}

EngineMode
Engine::resolvedMode() const
{
    return session_->resolvedMode();
}

SimResult
Engine::run(std::span<const uint8_t> input, HotStateProfiler *profiler)
{
    const size_t n = input.size();

    // One whole-input stream through the session. The alphabet is the
    // input's exact distinct-byte set — the sparse core's universality
    // (and so its latching and within-position report order) is
    // relative to it, and a whole-input run knows it up front.
    session_->setInputSkip(skip_enabled_);
    session_->setAlphabet(ExecCore::distinctBytes(input));
    session_->restart(profiler);
    session_->feed(input);

    const SessionStats &st = session_->stats();
    SimResult result;
    result.cycles = n;
    result.skippedSymbols = st.skippedSymbols;
    result.skipJumps = st.skipJumps;
    result.usedDenseCore = st.usedDenseCore;
    result.usedDfa = st.usedDfa;
    result.reports = session_->takeReports();
    recordRun(result, n,
              st.usedDenseCore ? session_->denseCore() : nullptr,
              st.handedOver);
    return result;
}

} // namespace sparseap
