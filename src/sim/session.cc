#include "sim/session.h"

#include <algorithm>

#include "common/logging.h"
#include "common/vec.h"
#include "sim/dense_core.h"
#include "sim/engine.h"
#include "sim/hot_dfa.h"
#include "sim/profiler.h"
#include "telemetry/metrics.h"

namespace sparseap {

namespace {

/**
 * DFA skip-gate tuning, shared with the whole-input path (which is this
 * path — Engine delegates here). Scanning only pays when quiescent runs
 * are long enough to amortize the per-byte mask check, so the gate
 * reassesses the average jump length every kAdaptJumps jumps and stops
 * scanning below break-even. Chunk boundaries clip individual scans, so
 * a chunked stream's gate trajectory (and skip counters) can differ
 * from a whole-input run's — reports never do.
 */
constexpr uint64_t kAdaptJumps = 64;
constexpr uint64_t kMinBytesPerJump = 4;

void
countChunks(uint64_t n)
{
    static telemetry::Counter chunks("session.chunks");
    chunks.add(n);
}

} // namespace

EngineSession::EngineSession(const FlatAutomaton &fa)
    : EngineSession(fa, SessionConfig{})
{
}

EngineSession::EngineSession(const FlatAutomaton &fa, SessionConfig config)
    : fa_(fa), config_(config), core_(std::make_unique<ExecCore>(fa))
{
}

EngineSession::~EngineSession() = default;

const DenseCore *
EngineSession::denseCore() const
{
    return dense_.get();
}

void
EngineSession::ensureDense()
{
    if (!dense_)
        dense_ = std::make_unique<DenseCore>(fa_);
}

EngineMode
initialCore(const FlatAutomaton &fa, EngineMode mode)
{
    if (mode != EngineMode::Auto && mode != EngineMode::Dfa)
        return mode;
    if (fa.ensureHotDfa())
        return EngineMode::Dfa;
    return mode == EngineMode::Dfa ? EngineMode::Dense : EngineMode::Auto;
}

EngineMode
EngineSession::resolvedMode() const
{
    switch (phase_) {
    case Phase::Sparse:
    case Phase::Probe:
        return EngineMode::Sparse;
    case Phase::Dense:
        return EngineMode::Dense;
    case Phase::Dfa:
        return EngineMode::Dfa;
    }
    return EngineMode::Sparse; // unreachable
}

void
EngineSession::restart(HotStateProfiler *profiler)
{
    static telemetry::Counter streams("session.streams");
    streams.add(1);

    offset_ = 0;
    report_capacity_ = std::max(report_capacity_, reports_.size());
    reports_.clear();
    reports_.reserve(report_capacity_);
    stats_ = SessionStats{};
    probe_work_ = 0;
    dfa_state_ = 0;
    dfa_scanning_ = true;
    skip_base_symbols_ = 0;
    skip_base_jumps_ = 0;

    if (profiler) {
        // Profiling needs the per-state enable hooks only the sparse
        // core has; profile prefixes are short.
        profiler->markStarts(fa_);
        phase_ = Phase::Sparse;
        core_->reset(config_.alphabet, profiler, /*install_starts=*/true);
        return;
    }

    // After a bailout auto probes: the handover is decided at global
    // cycle kProbeCycles (a stream that ends earlier just ran sparse).
    switch (initialCore(fa_, config_.mode)) {
    case EngineMode::Dfa:
        dfa_ = fa_.ensureHotDfa(); // cache hit
        phase_ = Phase::Dfa;
        break;
    case EngineMode::Dense:
        ensureDense();
        dense_->reset(/*install_starts=*/true);
        phase_ = Phase::Dense;
        break;
    case EngineMode::Sparse:
    case EngineMode::Auto:
        core_->reset(config_.alphabet, nullptr, /*install_starts=*/true);
        phase_ = config_.mode == EngineMode::Auto ? Phase::Probe
                                                  : Phase::Sparse;
        break;
    }
}

void
EngineSession::decideHandover()
{
    if (Engine::prefersDense(fa_.size(), probe_work_)) {
        // Dense from here on, for the rest of the stream: hand the
        // in-flight enabled set over. The decision is made exactly once
        // per stream, at the same global cycle a whole-input run
        // decides — never re-probed on later chunks.
        std::vector<GlobalStateId> live;
        core_->snapshotEnabled(&live);
        ensureDense();
        dense_->reset(/*install_starts=*/false);
        dense_->seed(live);
        phase_ = Phase::Dense;
        stats_.handedOver = true;
    } else {
        phase_ = Phase::Sparse; // committed: no further probing
    }
}

size_t
EngineSession::feedDense(std::span<const uint8_t> chunk, size_t i)
{
    const size_t n = chunk.size();
    if (config_.inputSkip) {
        while (i < n) {
            i += dense_->trySkip(chunk.data() + i, n - i);
            if (i >= n)
                break;
            dense_->step(chunk[i], offset_ + i, &reports_);
            ++i;
        }
    } else {
        for (; i < n; ++i)
            dense_->step(chunk[i], offset_ + i, &reports_);
    }
    const DenseCore::StepStats &ds = dense_->stepStats();
    stats_.skippedSymbols = skip_base_symbols_ + ds.skippedSymbols;
    stats_.skipJumps = skip_base_jumps_ + ds.jumps;
    stats_.usedDenseCore = true;
    return n;
}

size_t
EngineSession::feedDfa(std::span<const uint8_t> chunk, size_t i)
{
    const size_t n = chunk.size();
    const HotDfa &dfa = *dfa_;
    uint32_t state = dfa_state_;
    if (config_.inputSkip && dfa.anySkippable()) {
        // Quiescence-skip loop with the adaptive profitability gate;
        // the gate counters and the scanning flag persist across
        // chunks, so a long boring stream gives up scanning once, not
        // once per chunk.
        const simd::Ops &ops = simd::ops();
        while (i < n) {
            const simd::ScanMask *m =
                dfa_scanning_ ? dfa.skipMask(state) : nullptr;
            if (m != nullptr && !m->test(chunk[i])) {
                const size_t skipped =
                    ops.scanForByteMask(chunk.data() + i, n - i, *m);
                stats_.skippedSymbols += skipped;
                ++stats_.skipJumps;
                i += skipped;
                if (i >= n)
                    break;
                if (stats_.skipJumps % kAdaptJumps == 0 &&
                    stats_.skippedSymbols <
                        stats_.skipJumps * kMinBytesPerJump)
                    dfa_scanning_ = false;
            }
            state = dfa.next(state, chunk[i]);
            for (GlobalStateId id : dfa.reportsOf(state))
                reports_.push_back({offset_ + i, id});
            ++i;
        }
    } else {
        for (; i < n; ++i) {
            state = dfa.next(state, chunk[i]);
            for (GlobalStateId id : dfa.reportsOf(state))
                reports_.push_back({offset_ + i, id});
        }
    }
    dfa_state_ = state;
    stats_.usedDfa = true;
    return n;
}

void
EngineSession::feed(std::span<const uint8_t> chunk)
{
    ++stats_.chunks;
    countChunks(1);
    const size_t n = chunk.size();
    size_t i = 0;

    if (phase_ == Phase::Probe) {
        // The decision point is the arrival of stream symbol
        // kProbeCycles (0-based): the first kProbeCycles symbols ran
        // sparse and their work is in; a whole-input run would decide
        // here too. A stream that ends earlier just ran sparse.
        while (i < n && offset_ + i < Engine::kProbeCycles) {
            core_->step(chunk[i], offset_ + i, &reports_);
            probe_work_ += core_->lastStepWork();
            ++i;
        }
        if (phase_ == Phase::Probe &&
            offset_ + i >= Engine::kProbeCycles && i < n)
            decideHandover();
    }

    if (phase_ == Phase::Sparse || phase_ == Phase::Probe) {
        for (; i < n; ++i)
            core_->step(chunk[i], offset_ + i, &reports_);
    } else if (phase_ == Phase::Dense) {
        i = feedDense(chunk, i);
    } else if (phase_ == Phase::Dfa) {
        i = feedDfa(chunk, i);
    }

    offset_ += n;
    stats_.cycles = offset_;
}

ReportList
EngineSession::takeReports()
{
    report_capacity_ = std::max(report_capacity_, reports_.size());
    ReportList out = std::move(reports_);
    reports_ = ReportList();
    return out;
}

EngineSession::Snapshot
EngineSession::suspend() const
{
    static telemetry::Counter suspends("session.suspends");
    static telemetry::Counter snapshot_bytes("session.snapshot_bytes");
    suspends.add(1);

    Snapshot snap;
    snap.config = config_;
    snap.phase = static_cast<uint8_t>(phase_);
    snap.offset = offset_;
    snap.probeWork = probe_work_;
    snap.dfaState = dfa_state_;
    snap.dfaScanning = dfa_scanning_;
    snap.stats = stats_;
    switch (phase_) {
    case Phase::Sparse:
    case Phase::Probe:
        core_->saveState(&snap.sparse);
        break;
    case Phase::Dense:
        dense_->snapshotEnabled(&snap.dense);
        break;
    case Phase::Dfa:
        break; // dfaState is the whole execution state
    }
    snapshot_bytes.add(snap.byteSize());
    return snap;
}

void
EngineSession::resume(const Snapshot &snap)
{
    config_ = snap.config;
    phase_ = static_cast<Phase>(snap.phase);
    offset_ = snap.offset;
    probe_work_ = snap.probeWork;
    dfa_state_ = snap.dfaState;
    dfa_scanning_ = snap.dfaScanning;
    stats_ = snap.stats;
    reports_.clear();
    skip_base_symbols_ = 0;
    skip_base_jumps_ = 0;

    switch (phase_) {
    case Phase::Sparse:
    case Phase::Probe:
        core_->restoreState(config_.alphabet, snap.sparse);
        break;
    case Phase::Dense:
        ensureDense();
        dense_->reset(/*install_starts=*/false);
        dense_->seed(snap.dense);
        // The re-seeded core's StepStats restart at zero; carry the
        // stream's skip totals forward so stats stay monotone.
        skip_base_symbols_ = snap.stats.skippedSymbols;
        skip_base_jumps_ = snap.stats.skipJumps;
        break;
    case Phase::Dfa:
        dfa_ = fa_.ensureHotDfa(); // deterministic rebuild or cache hit
        SPARSEAP_ASSERT(dfa_ != nullptr,
                        "resuming a DFA-phase stream requires the "
                        "automaton to determinize under the current "
                        "budgets");
        break;
    }
}

void
EngineSession::feedFused(std::span<EngineSession *const> sessions,
                         std::span<const std::span<const uint8_t>> chunks)
{
    SPARSEAP_ASSERT(sessions.size() == chunks.size(),
                    "feedFused: one chunk per session");
    const size_t b = sessions.size();
    if (b == 0)
        return;
    const HotDfa *dfa = sessions[0]->dfa_.get();
    for (size_t k = 0; k < b; ++k) {
        SPARSEAP_ASSERT(sessions[k]->phase_ == Phase::Dfa,
                        "feedFused: every session must be in the DFA "
                        "phase");
        SPARSEAP_ASSERT(sessions[k]->dfa_.get() == dfa,
                        "feedFused: every session must share one DFA");
    }
    countChunks(b);

    // Interleave in blocks of kMaxFused streams: per input symbol, one
    // table lookup per stream — kMaxFused independent dependency
    // chains in flight instead of one, with the table shared across
    // all of them. Report extraction stays per-stream and in-order, so
    // the output is byte-identical to per-session feeds.
    constexpr size_t kMaxFused = 64;
    uint32_t st[kMaxFused];
    const uint8_t *in[kMaxFused];
    for (size_t base = 0; base < b; base += kMaxFused) {
        const size_t m = std::min(kMaxFused, b - base);
        size_t fused_n = SIZE_MAX; // common prefix of this block
        for (size_t k = 0; k < m; ++k) {
            st[k] = sessions[base + k]->dfa_state_;
            in[k] = chunks[base + k].data();
            fused_n = std::min(fused_n, chunks[base + k].size());
        }
        for (size_t t = 0; t < fused_n; ++t) {
            for (size_t k = 0; k < m; ++k) {
                const uint32_t s = dfa->next(st[k], in[k][t]);
                st[k] = s;
                if (!dfa->reportsOf(s).empty()) {
                    EngineSession &sess = *sessions[base + k];
                    for (GlobalStateId id : dfa->reportsOf(s))
                        sess.reports_.push_back({sess.offset_ + t, id});
                }
            }
        }
        // Unequal chunk lengths (last round of a batch): finish each
        // stream's tail individually.
        for (size_t k = 0; k < m; ++k) {
            EngineSession &sess = *sessions[base + k];
            const std::span<const uint8_t> chunk = chunks[base + k];
            uint32_t s = st[k];
            for (size_t t = fused_n; t < chunk.size(); ++t) {
                s = dfa->next(s, chunk[t]);
                for (GlobalStateId id : dfa->reportsOf(s))
                    sess.reports_.push_back({sess.offset_ + t, id});
            }
            sess.dfa_state_ = s;
            sess.offset_ += chunk.size();
            ++sess.stats_.chunks;
            sess.stats_.cycles = sess.offset_;
            sess.stats_.usedDfa = true;
        }
    }
}

} // namespace sparseap
