/**
 * @file
 * StreamBatchRunner tests: a batch of B streams over one shared
 * automaton must produce, per stream, exactly the reports a dedicated
 * whole-input Engine::run would — byte-identical at any lane count
 * (SPARSEAP_JOBS), any rotation quantum, in every engine mode, with the
 * fused DFA interleave engaged and not. The thread-sanitizer CI leg runs
 * these to vet the shared-FlatAutomaton concurrency.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/engine.h"
#include "sim/exec_core.h"
#include "sim/stream_batch.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

/**
 * B distinct inputs for one workload (same generator, different draw).
 * Stream i is shorter than stream 0 by i * (len / 2B + 1) bytes, so
 * streams finish at different rotations, mostly off the quantum grid.
 */
std::vector<std::vector<uint8_t>>
makeStreams(const Workload &w, size_t b, size_t bytes, Rng &rng)
{
    size_t len = bytes;
    if (w.inputBytesCap > 0)
        len = std::min(len, w.inputBytesCap);
    std::vector<std::vector<uint8_t>> streams;
    streams.reserve(b);
    for (size_t i = 0; i < b; ++i)
        streams.push_back(
            synthesizeInput(w.input, len - i * (len / (2 * b) + 1), rng));
    return streams;
}

std::vector<std::span<const uint8_t>>
asSpans(const std::vector<std::vector<uint8_t>> &streams)
{
    return {streams.begin(), streams.end()};
}

/** Per-stream whole-input references through dedicated engines. */
std::vector<ReportList>
referenceReports(const FlatAutomaton &fa, EngineMode mode,
                 const std::vector<std::vector<uint8_t>> &streams)
{
    std::vector<ReportList> refs;
    refs.reserve(streams.size());
    for (const auto &s : streams) {
        Engine engine(fa, mode);
        engine.setInputSkip(true);
        refs.push_back(engine.run(s).reports);
    }
    return refs;
}

/**
 * Batch == per-stream Engine::run on every mode, for stream counts
 * around and above the lane count. The runner's sessions run the
 * default all-bytes alphabet, so compare report multisets per stream
 * (within-position order can differ from the exact-alphabet engine);
 * position/state content must match record for record.
 */
TEST(StreamBatch, MatchesDedicatedEnginesPerStream)
{
    Rng rng(20180621);
    const char *abbrs[] = {"Bro217", "Brill", "EM"};
    for (const char *abbr : abbrs) {
        Workload w = generateWorkload(abbr, 7, 5);
        FlatAutomaton fa(w.app);
        const auto streams = makeStreams(w, 6, 768, rng);
        const auto spans = asSpans(streams);

        for (EngineMode mode :
             {EngineMode::Sparse, EngineMode::Dense, EngineMode::Dfa,
              EngineMode::Auto}) {
            SCOPED_TRACE(std::string(abbr) + " mode " +
                         engineModeName(mode));
            auto refs = referenceReports(fa, mode, streams);

            SessionConfig config;
            config.mode = mode;
            config.inputSkip = true;
            StreamBatchRunner runner(fa, config);
            runner.setQuantum(256);
            const std::vector<StreamResult> got =
                runner.run(spans, /*jobs=*/4);

            ASSERT_EQ(got.size(), streams.size());
            for (size_t i = 0; i < got.size(); ++i) {
                ReportList a = got[i].reports;
                ReportList b = refs[i];
                std::sort(a.begin(), a.end());
                std::sort(b.begin(), b.end());
                EXPECT_EQ(a, b) << "stream " << i;
                EXPECT_EQ(got[i].stats.cycles, streams[i].size());
            }
        }
    }
}

/**
 * Lane-count invariance: the full result set — reports AND stats — is
 * byte-identical at jobs 1, 2, 3, 8. Determinism is the contract that
 * makes batch output reproducible under any SPARSEAP_JOBS.
 */
TEST(StreamBatch, ResultsAreByteIdenticalAtAnyLaneCount)
{
    Rng rng(20180622);
    Workload w = generateWorkload("Bro217", 7, 5);
    FlatAutomaton fa(w.app);
    const auto streams = makeStreams(w, 9, 1024, rng);
    const auto spans = asSpans(streams);

    for (EngineMode mode : {EngineMode::Dfa, EngineMode::Auto}) {
        SessionConfig config;
        config.mode = mode;
        config.inputSkip = true;
        StreamBatchRunner runner(fa, config);

        const std::vector<StreamResult> base = runner.run(spans, 1);
        for (unsigned jobs : {2u, 3u, 8u}) {
            const std::vector<StreamResult> got =
                runner.run(spans, jobs);
            ASSERT_EQ(got.size(), base.size());
            for (size_t i = 0; i < got.size(); ++i) {
                SCOPED_TRACE("mode " +
                             std::string(engineModeName(mode)) +
                             " jobs " + std::to_string(jobs) +
                             " stream " + std::to_string(i));
                EXPECT_EQ(got[i].reports, base[i].reports);
                EXPECT_EQ(got[i].resolvedMode, base[i].resolvedMode);
                EXPECT_EQ(got[i].stats.cycles, base[i].stats.cycles);
                EXPECT_EQ(got[i].stats.skippedSymbols,
                          base[i].stats.skippedSymbols);
                EXPECT_EQ(got[i].stats.skipJumps,
                          base[i].stats.skipJumps);
                EXPECT_EQ(got[i].stats.handedOver,
                          base[i].stats.handedOver);
            }
        }
    }
}

/** Reports are quantum-invariant (stats may legitimately differ: the
 *  skip scans clip at rotation boundaries). */
TEST(StreamBatch, ReportsAreQuantumInvariant)
{
    Rng rng(20180623);
    Workload w = generateWorkload("EM", 7, 5);
    FlatAutomaton fa(w.app);
    const auto streams = makeStreams(w, 5, 700, rng);
    const auto spans = asSpans(streams);

    SessionConfig config;
    config.mode = EngineMode::Auto;
    StreamBatchRunner base(fa, config);
    base.setQuantum(StreamBatchRunner::kDefaultQuantum);
    const auto want = base.run(spans, 2);

    for (size_t quantum : {size_t{1}, size_t{13}, size_t{256}}) {
        StreamBatchRunner runner(fa, config);
        runner.setQuantum(quantum);
        const auto got = runner.run(spans, 2);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].reports, want[i].reports)
                << "quantum " << quantum << " stream " << i;
    }
}

/** The fused DFA interleave engages on a determinizable rule set and
 *  produces the dedicated-engine stream per lane-mate. */
TEST(StreamBatch, FusedDfaLanesMatchDedicatedEngines)
{
    Rng rng(20180624);
    Workload w = generateWorkload("Bro217", 7, 5);
    FlatAutomaton fa(w.app);
    ASSERT_NE(fa.ensureHotDfa(), nullptr)
        << "Bro217 at 5% scale must determinize within the budget";
    const auto streams = makeStreams(w, 16, 1024, rng);
    const auto spans = asSpans(streams);

    SessionConfig config;
    config.mode = EngineMode::Dfa;
    StreamBatchRunner runner(fa, config);
    runner.setQuantum(64); // many rotations through the fused path
    const auto got = runner.run(spans, 2);

    auto refs = referenceReports(fa, EngineMode::Dfa, streams);
    ASSERT_EQ(got.size(), streams.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].resolvedMode, EngineMode::Dfa)
            << "stream " << i;
        EXPECT_EQ(got[i].reports, refs[i]) << "stream " << i;
    }

    // A batch of one has nothing to fuse with: it keeps the input skip.
    config.inputSkip = true;
    StreamBatchRunner single(fa, config);
    single.setQuantum(64);
    const auto alone = single.run(
        std::span<const std::span<const uint8_t>>(spans).first(1), 2);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].reports, refs[0]);
    EXPECT_GT(alone[0].stats.skippedSymbols, 0u);
}

/** Degenerate shapes: no streams, one stream, empty streams, more lanes
 *  than streams. */
TEST(StreamBatch, DegenerateShapes)
{
    Rng rng(20180625);
    Workload w = generateWorkload("Brill", 7, 5);
    FlatAutomaton fa(w.app);

    SessionConfig config;
    config.mode = EngineMode::Auto;
    StreamBatchRunner runner(fa, config);

    // Empty batch.
    EXPECT_TRUE(runner.run({}, 4).empty());

    // One stream, eight lanes.
    const auto one = makeStreams(w, 1, 512, rng);
    Engine engine(fa, EngineMode::Auto);
    const ReportList want = engine.run(one[0]).reports;
    const auto got_one = runner.run(asSpans(one), 8);
    ASSERT_EQ(got_one.size(), 1u);
    ReportList a = got_one[0].reports;
    ReportList b = want;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);

    // Empty streams mixed with real ones terminate and report nothing.
    auto mixed = makeStreams(w, 3, 512, rng);
    mixed[1].clear();
    const auto got_mixed = runner.run(asSpans(mixed), 2);
    ASSERT_EQ(got_mixed.size(), 3u);
    EXPECT_TRUE(got_mixed[1].reports.empty());
    EXPECT_EQ(got_mixed[1].stats.cycles, 0u);
    EXPECT_EQ(got_mixed[0].stats.cycles, mixed[0].size());
    EXPECT_EQ(got_mixed[2].stats.cycles, mixed[2].size());
}

/** Regression: a batch where EVERY stream is empty must terminate and
 *  still produce one result slot per stream with zeroed stats — in
 *  every mode (including the fused DFA path) and at any lane count. */
TEST(StreamBatch, AllEmptyBatchYieldsZeroedSlots)
{
    Workload w = generateWorkload("Bro217", 7, 5);
    FlatAutomaton fa(w.app);
    ASSERT_NE(fa.ensureHotDfa(), nullptr);

    const std::vector<std::vector<uint8_t>> empties(5);
    for (EngineMode mode :
         {EngineMode::Sparse, EngineMode::Dense, EngineMode::Dfa,
          EngineMode::Auto}) {
        SessionConfig config;
        config.mode = mode;
        StreamBatchRunner runner(fa, config);
        for (unsigned jobs : {1u, 3u, 8u}) {
            SCOPED_TRACE(std::string(engineModeName(mode)) + " jobs " +
                         std::to_string(jobs));
            const auto got = runner.run(asSpans(empties), jobs);
            ASSERT_EQ(got.size(), empties.size());
            for (const StreamResult &r : got) {
                EXPECT_TRUE(r.reports.empty());
                EXPECT_EQ(r.stats.cycles, 0u);
                EXPECT_EQ(r.stats.chunks, 0u);
                EXPECT_EQ(r.stats.skippedSymbols, 0u);
                EXPECT_FALSE(r.stats.handedOver);
            }
        }
    }
}

} // namespace
} // namespace sparseap
