/**
 * @file
 * Hot-DFA determinization tests: table shape and report semantics on
 * hand-built automata, deterministic construction, budget bailouts
 * (state count, table bytes and activated-set bytes), engine fallback
 * when the budget blows, report equality of sparse/dense/DFA on random
 * automata and on every registered workload, and store round-trips that
 * preserve an attached DFA (and the lazy no-DFA-by-default encode
 * policy).
 */

#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/engine.h"
#include "sim/hot_dfa.h"
#include "store/artifact.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

namespace fs = std::filesystem;
using store::BlobView;
using store::BlobWriter;

ReportList
sortedReports(Engine &engine, std::span<const uint8_t> input)
{
    ReportList r = engine.run(input).reports;
    std::sort(r.begin(), r.end());
    return r;
}

/** Limits far above anything these tests construct. */
HotDfa::Limits
roomyLimits()
{
    HotDfa::Limits limits;
    limits.stateBudget = 1 << 20;
    limits.tableBytes = size_t{1} << 30;
    return limits;
}

std::vector<uint8_t>
bytesOf(std::string_view s)
{
    return {s.begin(), s.end()};
}

/**
 * Unanchored /ab/: state 0 is pre-input, one state per activated set
 * {a-position}, {b-position}, {} (miss), and {a,b} never co-activate.
 */
TEST(HotDfa, SinglePatternShape)
{
    Application app("p", "P");
    app.addNfa(compileRegex("ab", "p"));
    FlatAutomaton fa(app);

    auto dfa = HotDfa::build(fa, roomyLimits());
    ASSERT_NE(dfa, nullptr);
    // Reachable: pre-input, {}, {a}, {b}. Two classes: 'a', 'b' vs rest?
    // 'a' and 'b' are distinct columns, everything else is a third class
    // only if some state accepts it — here no state does, so bytes other
    // than 'a'/'b' pool into one class.
    EXPECT_EQ(dfa->classes(), fa.symbolClassCount());
    EXPECT_EQ(dfa->states(), 4u);
    EXPECT_EQ(dfa->tableBytes(),
              dfa->states() * dfa->classes() * sizeof(uint32_t));

    // Pre-input and the start state emit nothing; exactly one reachable
    // state (activated = {b-position}) reports.
    EXPECT_TRUE(dfa->reportsOf(0).empty());
    size_t reporting_states = 0;
    uint64_t total_reports = 0;
    for (uint32_t s = 0; s < dfa->states(); ++s) {
        const auto r = dfa->reportsOf(s);
        EXPECT_TRUE(std::is_sorted(r.begin(), r.end())) << "state " << s;
        reporting_states += r.empty() ? 0 : 1;
        total_reports += r.size();
    }
    EXPECT_EQ(reporting_states, 1u);
    EXPECT_EQ(total_reports, dfa->reportCount());

    // Walking the table by hand matches the sparse core.
    const std::vector<uint8_t> input = bytesOf("abxabab");
    uint32_t state = 0;
    ReportList walked;
    for (size_t i = 0; i < input.size(); ++i) {
        state = dfa->next(state, input[i]);
        for (GlobalStateId id : dfa->reportsOf(state))
            walked.push_back({static_cast<uint32_t>(i), id});
    }
    Engine sparse(fa, EngineMode::Sparse);
    std::sort(walked.begin(), walked.end());
    EXPECT_EQ(walked, sortedReports(sparse, input));
}

/** Same automaton, same limits: byte-identical tables (BFS order). */
TEST(HotDfa, ConstructionIsDeterministic)
{
    Rng rng(20180622);
    testing::RandomNfaParams params;
    params.reportProb = 0.4;
    params.universalProb = 0.2;
    Application app = testing::randomApplication(rng, 4, params);
    FlatAutomaton fa(app);

    auto a = HotDfa::build(fa, roomyLimits());
    auto b = HotDfa::build(fa, roomyLimits());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    const HotDfa::Parts pa = a->parts();
    const HotDfa::Parts pb = b->parts();
    EXPECT_EQ(pa.states, pb.states);
    EXPECT_EQ(pa.classes, pb.classes);
    EXPECT_TRUE(std::equal(pa.table.begin(), pa.table.end(),
                           pb.table.begin(), pb.table.end()));
    EXPECT_TRUE(std::equal(pa.reportBegin.begin(), pa.reportBegin.end(),
                           pb.reportBegin.begin(), pb.reportBegin.end()));
    EXPECT_TRUE(std::equal(pa.reportIds.begin(), pa.reportIds.end(),
                           pb.reportIds.begin(), pb.reportIds.end()));
}

/**
 * A latching (universal self-loop) reporting state keeps firing every
 * cycle once entered — the DFA must reach a sink that reports forever.
 */
TEST(HotDfa, LatchedReportingKeepsFiring)
{
    Nfa nfa("latch");
    const StateId trigger =
        nfa.addState(SymbolSet::single('t'), StartKind::AllInput, false);
    const StateId latch = nfa.addState(SymbolSet::all(), StartKind::None,
                                       true);
    nfa.addEdge(trigger, latch);
    nfa.addEdge(latch, latch);
    nfa.finalize();
    Application app("latch", "L");
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);

    auto dfa = HotDfa::build(fa, roomyLimits());
    ASSERT_NE(dfa, nullptr);

    const std::vector<uint8_t> input = bytesOf("xxtxxx");
    uint32_t state = 0;
    size_t reports = 0;
    for (uint8_t b : input) {
        state = dfa->next(state, b);
        reports += dfa->reportsOf(state).size();
    }
    EXPECT_EQ(reports, 3u); // every cycle after the 't' at position 2

    Engine dfa_engine(fa, EngineMode::Dfa);
    Engine sparse(fa, EngineMode::Sparse);
    SimResult run = dfa_engine.run(input);
    EXPECT_TRUE(run.usedDfa);
    std::sort(run.reports.begin(), run.reports.end());
    EXPECT_EQ(run.reports, sortedReports(sparse, input));
}

/** /a.{k}/ tracks 'a' sightings over a k-byte window: ~2^(k+1) sets. */
Application
windowApp(int k)
{
    Application app("window", "W");
    app.addNfa(compileRegex("a.{" + std::to_string(k) + "}", "w"));
    return app;
}

TEST(HotDfa, StateBudgetBailsOut)
{
    Application app = windowApp(12); // > 4096 activated sets
    FlatAutomaton fa(app);

    HotDfa::Limits limits = roomyLimits();
    limits.stateBudget = 2048;
    EXPECT_EQ(HotDfa::build(fa, limits), nullptr);

    // The same automaton with a small window fits comfortably.
    Application small = windowApp(6);
    FlatAutomaton small_fa(small);
    auto dfa = HotDfa::build(small_fa, limits);
    ASSERT_NE(dfa, nullptr);
    EXPECT_LE(dfa->states(), limits.stateBudget);
}

TEST(HotDfa, TableByteBudgetBailsOut)
{
    Application app = windowApp(6);
    FlatAutomaton fa(app);

    HotDfa::Limits limits = roomyLimits();
    limits.tableBytes = 64; // a handful of transitions at most
    EXPECT_EQ(HotDfa::build(fa, limits), nullptr);
}

/**
 * The table budget also caps the activated sets the construction holds
 * (states x NFA words x 8 bytes). With many NFA states and few symbol
 * classes those outgrow the table, and the build bails where the table
 * alone would fit.
 */
TEST(HotDfa, ActivatedSetBytesCountAgainstTableBudget)
{
    Application app("many", "M");
    for (int i = 0; i < 300; ++i)
        app.addNfa(compileRegex("ab", "p" + std::to_string(i)));
    FlatAutomaton fa(app);
    const auto roomy = HotDfa::build(fa, roomyLimits());
    ASSERT_NE(roomy, nullptr);
    const size_t set_bytes = (fa.size() + 63) / 64 * sizeof(uint64_t);
    ASSERT_GT(set_bytes, roomy->classes() * sizeof(uint32_t));

    HotDfa::Limits limits = roomyLimits();
    limits.tableBytes = roomy->tableBytes();
    EXPECT_EQ(HotDfa::build(fa, limits), nullptr);
    limits.tableBytes = roomy->states() * set_bytes;
    EXPECT_NE(HotDfa::build(fa, limits), nullptr);
}

/**
 * EngineMode::Dfa on an automaton whose subset construction blows the
 * default budget must fall back to the dense core — and still match.
 */
TEST(HotDfa, EngineFallsBackToDenseOnBailout)
{
    Application app = windowApp(12);
    FlatAutomaton fa(app);
    ASSERT_EQ(fa.ensureHotDfa(), nullptr); // default budget blows

    Rng rng(7);
    std::vector<uint8_t> input(600);
    for (uint8_t &b : input)
        b = rng.index(3) == 0 ? 'a' : 'x';

    Engine dfa_engine(fa, EngineMode::Dfa);
    Engine sparse(fa, EngineMode::Sparse);
    SimResult run = dfa_engine.run(input);
    EXPECT_FALSE(run.usedDfa);
    EXPECT_TRUE(run.usedDenseCore);
    std::sort(run.reports.begin(), run.reports.end());
    EXPECT_EQ(run.reports, sortedReports(sparse, input));
}

/** DFA == sparse == naive oracle on random automata. */
TEST(HotDfa, PropertyMatchesSparseAndNaiveOnRandomAutomata)
{
    Rng rng(20180623);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.sodProb = trial % 3 == 0 ? 0.5 : 0.0;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.12;
        Application app = testing::randomApplication(
            rng, 1 + rng.index(4), params);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 250, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine dfa_engine(fa, EngineMode::Dfa);
        Engine sparse(fa, EngineMode::Sparse);
        const ReportList want = sortedReports(sparse, input);
        EXPECT_EQ(sortedReports(dfa_engine, input), want)
            << "trial " << trial;
        EXPECT_EQ(want, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

/**
 * Sparse, dense, and DFA mode emit identical reports on every registered
 * workload. Realistic rule sets usually blow the determinization budget
 * — then DFA mode *is* the dense core and the check still holds; where
 * the budget suffices the DFA table itself is gated.
 */
TEST(HotDfa, PropertyAllEnginesMatchOnAllWorkloads)
{
    Rng input_rng(20180621);
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1536;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);

        FlatAutomaton fa(w.app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        Engine dfa(fa, EngineMode::Dfa);
        const ReportList want = sortedReports(sparse, input);
        EXPECT_EQ(sortedReports(dense, input), want) << entry.abbr;
        EXPECT_EQ(sortedReports(dfa, input), want) << entry.abbr;
    }
}

/** Round-trip through an on-disk blob, DFA attached. */
TEST(HotDfa, StoreRoundTripPreservesDfa)
{
    Application app = windowApp(5);
    FlatAutomaton fa(app);
    auto built = fa.ensureHotDfa();
    ASSERT_NE(built, nullptr);

    const fs::path dir =
        fs::temp_directory_path() / "sparseap_test_hot_dfa";
    fs::create_directories(dir);
    const std::string path = (dir / "dfa.apb").string();

    BlobWriter w(store::ArtifactKind::FlatAutomaton, 0x1dfa);
    store::encodeFlatAutomaton(fa, w);
    std::string error;
    ASSERT_TRUE(w.commit(path, &error)) << error;

    auto blob = BlobView::open(path, &error);
    ASSERT_NE(blob, nullptr) << error;
    auto loaded = store::decodeFlatAutomaton(*blob, 0, &error);
    ASSERT_NE(loaded, nullptr) << error;

    // The DFA is attached at decode time — no construction on this path.
    auto warm = loaded->hotDfaIfBuilt();
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->states(), built->states());
    EXPECT_EQ(warm->classes(), built->classes());
    EXPECT_EQ(warm->tableBytes(), built->tableBytes());
    EXPECT_EQ(warm->reportCount(), built->reportCount());
    const HotDfa::Parts a = built->parts();
    const HotDfa::Parts b = warm->parts();
    EXPECT_TRUE(std::equal(a.table.begin(), a.table.end(),
                           b.table.begin(), b.table.end()));
    EXPECT_TRUE(std::equal(a.reportIds.begin(), a.reportIds.end(),
                           b.reportIds.begin(), b.reportIds.end()));

    Rng rng(11);
    const std::vector<uint8_t> input = testing::randomInput(rng, 400, 4);
    Engine fresh(fa, EngineMode::Dfa);
    Engine reloaded(*loaded, EngineMode::Dfa);
    SimResult run = reloaded.run(input);
    EXPECT_TRUE(run.usedDfa);
    std::sort(run.reports.begin(), run.reports.end());
    EXPECT_EQ(run.reports, sortedReports(fresh, input));

    fs::remove_all(dir);
}

/** Encoding an undeterminized automaton must not trigger construction. */
TEST(HotDfa, EncodeWithoutBuildStaysLazy)
{
    Application app = windowApp(5);
    FlatAutomaton fa(app);
    ASSERT_EQ(fa.hotDfaIfBuilt(), nullptr);

    BlobWriter w(store::ArtifactKind::FlatAutomaton, 0x2dfa);
    store::encodeFlatAutomaton(fa, w);
    EXPECT_EQ(fa.hotDfaIfBuilt(), nullptr);

    std::string error;
    auto blob = BlobView::fromBuffer(w.finalize(), &error);
    ASSERT_NE(blob, nullptr) << error;
    EXPECT_EQ(blob->findSection(store::kFaDfaMeta), nullptr);
    auto loaded = store::decodeFlatAutomaton(*blob, 0, &error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->hotDfaIfBuilt(), nullptr);
}

} // namespace
} // namespace sparseap
