/**
 * @file
 * EngineSession tests: the chunked-execution invariant — restart();
 * feed(c0); ...; feed(ck) produces a report stream byte-identical to one
 * Engine::run over the concatenation — on every registered workload,
 * every engine mode, chunk sizes from 1 byte to whole-input, with the
 * input skip on and off; plus suspend()/resume() round trips (including
 * cross-session migration and >4 GiB stream offsets) and a randomized
 * chunk-boundary differential over random automata.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "sim/exec_core.h"
#include "sim/session.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

/** Whole-input reference through Engine::run. */
SimResult
wholeRun(const FlatAutomaton &fa, EngineMode mode, bool skip,
         std::span<const uint8_t> input)
{
    Engine engine(fa, mode);
    engine.setInputSkip(skip);
    return engine.run(input);
}

/** Session config that matches Engine::run's resolution byte-for-byte:
 *  same mode, same skip, and the input's exact distinct-byte alphabet
 *  (the sparse core's universality — and so its within-position report
 *  order — is relative to the declared alphabet). */
SessionConfig
engineParityConfig(EngineMode mode, bool skip,
                   std::span<const uint8_t> input)
{
    SessionConfig config;
    config.mode = mode;
    config.inputSkip = skip;
    config.alphabet = ExecCore::distinctBytes(input);
    return config;
}

/** Feed @p input through a fresh session in @p chunk-byte pieces. */
ReportList
chunkedReports(const FlatAutomaton &fa, const SessionConfig &config,
               std::span<const uint8_t> input, size_t chunk)
{
    EngineSession session(fa, config);
    session.restart();
    size_t i = 0;
    while (i < input.size()) {
        const size_t take = std::min(chunk, input.size() - i);
        session.feed(input.subspan(i, take));
        i += take;
    }
    EXPECT_EQ(session.offset(), input.size());
    EXPECT_EQ(session.stats().cycles, input.size());
    return session.takeReports();
}

constexpr EngineMode kAllModes[] = {EngineMode::Sparse, EngineMode::Dense,
                                    EngineMode::Dfa, EngineMode::Auto};

/**
 * The headline invariant: every registered workload, every engine mode,
 * chunk sizes {1, 7, 4096, whole}, skip on and off — the chunked report
 * stream is byte-identical (same records, same order) to Engine::run,
 * and the session resolves to the same core the engine did.
 */
TEST(Session, ChunkedMatchesWholeEveryWorkloadModeChunkSkip)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        for (EngineMode mode : kAllModes) {
            for (bool skip : {false, true}) {
                const SimResult want = wholeRun(fa, mode, skip, input);
                const SessionConfig config =
                    engineParityConfig(mode, skip, input);

                const size_t chunks[] = {1, 7, 4096, input.size()};
                for (size_t chunk : chunks) {
                    SCOPED_TRACE(entry.abbr + std::string(" mode ") +
                                 engineModeName(mode) + " chunk " +
                                 std::to_string(chunk) +
                                 (skip ? " skip" : " noskip"));
                    EngineSession session(fa, config);
                    session.restart();
                    size_t i = 0;
                    while (i < input.size()) {
                        const size_t take =
                            std::min(chunk, input.size() - i);
                        session.feed(std::span(input).subspan(i, take));
                        i += take;
                    }
                    EXPECT_EQ(session.reports(), want.reports);
                    const SessionStats &st = session.stats();
                    EXPECT_EQ(st.cycles, input.size());
                    EXPECT_EQ(st.chunks,
                              (input.size() + chunk - 1) / chunk);
                    // The chunked run must land on the same core and
                    // make the same auto decision as the whole run.
                    EXPECT_EQ(st.usedDenseCore, want.usedDenseCore);
                    EXPECT_EQ(st.usedDfa, want.usedDfa);
                }
            }
        }
    }
}

/**
 * Without a declared alphabet the session runs the safe superset (every
 * byte may still arrive). Latching decisions can then differ, which may
 * reorder reports within a position — but the report *multiset* is the
 * same stream of matches.
 */
TEST(Session, DefaultAlphabetPreservesReportContent)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        ReportList want = wholeRun(fa, EngineMode::Auto, true,
                                   input).reports;
        std::sort(want.begin(), want.end());

        SessionConfig config; // alphabet = Bitset256::all()
        config.mode = EngineMode::Auto;
        ReportList got = chunkedReports(fa, config, input, 37);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << entry.abbr;
    }
}

/**
 * suspend()/resume() round trip, including migration to a *different*
 * session object: split the stream at assorted boundaries (first byte,
 * probe-decision cycle, mid-stream, last byte), park the stream, resume
 * it elsewhere, and require the concatenated report stream to be
 * byte-identical to the unsuspended run — in every mode.
 */
TEST(Session, SuspendResumeMigratesAcrossSessions)
{
    Rng input_rng(20180621);
    const char *abbrs[] = {"Bro217", "HM", "Snort"};
    for (const char *abbr : abbrs) {
        Workload w = generateWorkload(abbr, 7, 5);
        size_t bytes = 1024;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);
        FlatAutomaton fa(w.app);

        for (EngineMode mode : kAllModes) {
            const SimResult want = wholeRun(fa, mode, true, input);
            const SessionConfig config =
                engineParityConfig(mode, true, input);

            const size_t splits[] = {0, 1, Engine::kProbeCycles,
                                     input.size() / 2,
                                     input.size() - 1, input.size()};
            for (size_t split : splits) {
                SCOPED_TRACE(std::string(abbr) + " mode " +
                             engineModeName(mode) + " split " +
                             std::to_string(split));
                EngineSession first(fa, config);
                first.restart();
                first.feed(std::span(input).first(split));
                ReportList got = first.takeReports();
                const EngineSession::Snapshot snap = first.suspend();
                EXPECT_EQ(snap.offset, split);

                EngineSession second(fa, config);
                second.resume(snap);
                EXPECT_EQ(second.offset(), split);
                second.feed(std::span(input).subspan(split));
                const ReportList tail = second.takeReports();
                got.insert(got.end(), tail.begin(), tail.end());
                EXPECT_EQ(got, want.reports);
                EXPECT_EQ(second.stats().usedDenseCore,
                          want.usedDenseCore);
                EXPECT_EQ(second.stats().usedDfa, want.usedDfa);
            }
        }
    }
}

/**
 * The auto probe's sparse→dense handover must fire at the same global
 * cycle no matter how the stream is chunked — including a suspend in the
 * middle of the probe window — on an automaton where the handover
 * provably fires (hundreds of always-enabled starts) and the probe
 * provably runs (the a.{12} window blows the DFA budget).
 */
TEST(Session, AutoHandoverSurvivesChunkingAndSuspend)
{
    Application app("dense", "D");
    for (int i = 0; i < 300; ++i)
        app.addNfa(compileRegex("ab", "p" + std::to_string(i)));
    app.addNfa(compileRegex("a.{12}", "w"));
    FlatAutomaton fa(app);
    ASSERT_GE(fa.size(), Engine::kMinDenseStates);
    ASSERT_EQ(fa.ensureHotDfa(), nullptr);

    std::vector<uint8_t> input(1000, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    const SimResult want =
        wholeRun(fa, EngineMode::Auto, true, input);
    ASSERT_TRUE(want.usedDenseCore);

    const SessionConfig config =
        engineParityConfig(EngineMode::Auto, true, input);

    // 1-byte chunks across the probe decision.
    EXPECT_EQ(chunkedReports(fa, config, input, 1), want.reports);

    // Suspend inside the probe window, resume, finish.
    EngineSession first(fa, config);
    first.restart();
    first.feed(std::span(input).first(Engine::kProbeCycles / 2));
    ReportList got = first.takeReports();
    EngineSession second(fa, config);
    second.resume(first.suspend());
    second.feed(std::span(input).subspan(Engine::kProbeCycles / 2));
    EXPECT_TRUE(second.stats().handedOver);
    const ReportList tail = second.takeReports();
    got.insert(got.end(), tail.begin(), tail.end());
    EXPECT_EQ(got, want.reports);
}

/**
 * Auto mode on an automaton that determinizes runs the DFA table from
 * the first byte — whole-input, in 1-byte chunks, and across a suspend/
 * resume mid-stream — with reports identical to the sparse core's.
 */
TEST(Session, AutoRunsDfaFromFirstByteWhenAutomatonDeterminizes)
{
    Application app("dense", "D");
    for (int i = 0; i < 300; ++i)
        app.addNfa(compileRegex("ab", "p" + std::to_string(i)));
    FlatAutomaton fa(app);
    ASSERT_NE(fa.ensureHotDfa(), nullptr);

    std::vector<uint8_t> input(1000, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    Engine engine(fa, EngineMode::Auto);
    const SimResult want = engine.run(input);
    EXPECT_EQ(engine.resolvedMode(), EngineMode::Dfa);
    EXPECT_TRUE(want.usedDfa);
    EXPECT_FALSE(want.usedDenseCore);
    ASSERT_FALSE(want.reports.empty());
    ReportList sparse = wholeRun(fa, EngineMode::Sparse, true,
                                 input).reports;
    ReportList sorted = want.reports;
    std::sort(sparse.begin(), sparse.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, sparse);

    const SessionConfig config =
        engineParityConfig(EngineMode::Auto, true, input);

    // 1-byte chunks: on the table before and after the first byte.
    EngineSession chunked(fa, config);
    chunked.restart();
    EXPECT_EQ(chunked.resolvedMode(), EngineMode::Dfa);
    for (size_t i = 0; i < input.size(); ++i) {
        chunked.feed(std::span(input).subspan(i, 1));
        ASSERT_EQ(chunked.resolvedMode(), EngineMode::Dfa) << "byte " << i;
    }
    EXPECT_EQ(chunked.reports(), want.reports);
    EXPECT_FALSE(chunked.stats().handedOver);

    // Suspend mid-stream, resume on another session, finish.
    EngineSession first(fa, config);
    first.restart();
    first.feed(std::span(input).first(Engine::kProbeCycles / 2));
    ReportList got = first.takeReports();
    EngineSession second(fa, config);
    second.resume(first.suspend());
    EXPECT_EQ(second.resolvedMode(), EngineMode::Dfa);
    second.feed(std::span(input).subspan(Engine::kProbeCycles / 2));
    EXPECT_EQ(second.resolvedMode(), EngineMode::Dfa);
    EXPECT_TRUE(second.stats().usedDfa);
    const ReportList tail = second.takeReports();
    got.insert(got.end(), tail.begin(), tail.end());
    EXPECT_EQ(got, want.reports);
}

/**
 * Report::position is a 64-bit global stream offset: resuming a parked
 * stream beyond 4 GiB keeps reporting exact positions (the satellite
 * that widened Report::position from uint32_t).
 */
TEST(Session, ResumedStreamReportsSixtyFourBitPositions)
{
    // A guaranteed-reporting automaton: "ab" matches every other byte
    // of an a/b-alternating input, and one NFA determinizes trivially.
    Application app("wide", "W");
    app.addNfa(compileRegex("ab", "p"));
    FlatAutomaton fa(app);
    std::vector<uint8_t> input(512, 'a');
    for (size_t i = 1; i < input.size(); i += 2)
        input[i] = 'b';

    for (EngineMode mode :
         {EngineMode::Sparse, EngineMode::Dense, EngineMode::Dfa}) {
        const SessionConfig config =
            engineParityConfig(mode, false, input);

        EngineSession zero(fa, config);
        zero.restart();
        zero.feed(input);
        const ReportList base = zero.takeReports();
        ASSERT_FALSE(base.empty())
            << "test needs a reporting workload";

        // Park a fresh stream and pretend 8 GiB already went by: the
        // snapshot's offset is the only thing that moves.
        EngineSession fresh(fa, config);
        fresh.restart();
        EngineSession::Snapshot snap = fresh.suspend();
        const uint64_t kFar = 1ull << 33;
        snap.offset = kFar;
        snap.stats.cycles = kFar;

        EngineSession far(fa, config);
        far.resume(snap);
        far.feed(input);
        const ReportList &got = far.reports();
        ASSERT_EQ(got.size(), base.size()) << engineModeName(mode);
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].position, base[i].position + kFar);
            EXPECT_EQ(got[i].state, base[i].state);
        }
    }
}

/** Random automata, random chunk partitions: chunked == whole. */
TEST(Session, RandomizedChunkBoundaryDifferential)
{
    Rng rng(20260813);
    for (int trial = 0; trial < 24; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.1;
        params.extraStartProb = 0.4;
        Application app = testing::randomApplication(
            rng, 2 + rng.index(12), params);
        const std::vector<uint8_t> input =
            testing::randomInput(rng, 500, params.alphabetSize);
        FlatAutomaton fa(app);

        const EngineMode mode = kAllModes[trial % 4];
        const bool skip = trial % 3 == 0;
        const SimResult want = wholeRun(fa, mode, skip, input);
        const SessionConfig config =
            engineParityConfig(mode, skip, input);

        // A random chunk partition of the stream, suspending and
        // migrating the session at one random boundary along the way.
        EngineSession session(fa, config);
        session.restart();
        ReportList got;
        size_t i = 0;
        const size_t migrate_at = rng.index(input.size());
        bool migrated = false;
        std::unique_ptr<EngineSession> owner;
        EngineSession *live = &session;
        while (i < input.size()) {
            if (!migrated && i >= migrate_at) {
                const ReportList part = live->takeReports();
                got.insert(got.end(), part.begin(), part.end());
                owner = std::make_unique<EngineSession>(fa, config);
                owner->resume(live->suspend());
                live = owner.get();
                migrated = true;
            }
            const size_t take = std::min<size_t>(
                1 + rng.index(97), input.size() - i);
            live->feed(std::span(input).subspan(i, take));
            i += take;
        }
        const ReportList part = live->takeReports();
        got.insert(got.end(), part.begin(), part.end());
        EXPECT_EQ(got, want.reports) << "trial " << trial << " mode "
                                     << engineModeName(mode);
    }
}

/** resolvedMode() reports the core actually running. */
TEST(Session, ResolvedModeTracksExecution)
{
    Rng input_rng(20180621);
    Workload w = generateWorkload("Bro217", 7, 5);
    size_t bytes = 512;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, bytes, input_rng);
    FlatAutomaton fa(w.app);

    for (EngineMode mode : kAllModes) {
        SessionConfig config = engineParityConfig(mode, true, input);
        EngineSession session(fa, config);
        session.restart();
        session.feed(input);
        const EngineMode resolved = session.resolvedMode();
        const SessionStats &st = session.stats();
        switch (resolved) {
        case EngineMode::Sparse:
            EXPECT_FALSE(st.usedDenseCore);
            EXPECT_FALSE(st.usedDfa);
            break;
        case EngineMode::Dense:
            EXPECT_TRUE(st.usedDenseCore);
            break;
        case EngineMode::Dfa:
            EXPECT_TRUE(st.usedDfa);
            break;
        case EngineMode::Auto:
            ADD_FAILURE() << "resolvedMode may never stay Auto after "
                             "a restart";
            break;
        }
        // Engine::resolvedMode surfaces the same resolution.
        Engine engine(fa, mode);
        engine.setInputSkip(true);
        engine.run(input);
        EXPECT_EQ(engine.resolvedMode(), resolved)
            << engineModeName(mode);
    }
}

/** Empty chunks and empty streams are legal no-ops. */
TEST(Session, EmptyChunksAreNoOps)
{
    Rng input_rng(20180621);
    Workload w = generateWorkload("EM", 7, 5);
    size_t bytes = 256;
    if (w.inputBytesCap > 0)
        bytes = std::min(bytes, w.inputBytesCap);
    const std::vector<uint8_t> input =
        synthesizeInput(w.input, bytes, input_rng);
    FlatAutomaton fa(w.app);

    const SimResult want =
        wholeRun(fa, EngineMode::Auto, true, input);
    const SessionConfig config =
        engineParityConfig(EngineMode::Auto, true, input);

    EngineSession session(fa, config);
    session.restart();
    session.feed({});
    session.feed(std::span(input).first(input.size() / 2));
    session.feed({});
    session.feed(std::span(input).subspan(input.size() / 2));
    session.feed({});
    EXPECT_EQ(session.offset(), input.size());
    EXPECT_EQ(session.reports(), want.reports);

    // A stream of nothing reports nothing.
    EngineSession empty(fa, config);
    empty.restart();
    empty.feed({});
    EXPECT_EQ(empty.offset(), 0u);
    EXPECT_TRUE(empty.reports().empty());
}

} // namespace
} // namespace sparseap
