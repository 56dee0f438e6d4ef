/** @file Unit tests for the ExecCore latching fast path. */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "sim/exec_core.h"
#include "sim/engine.h"
#include "sim/profiler.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"

namespace sparseap {
namespace {

std::span<const uint8_t>
bytes(const std::string &s)
{
    return {reinterpret_cast<const uint8_t *>(s.data()), s.size()};
}

TEST(ExecCore, DistinctBytes)
{
    Bitset256 set = ExecCore::distinctBytes(bytes("abca"));
    EXPECT_EQ(set.count(), 3);
    EXPECT_TRUE(set.test('a'));
    EXPECT_TRUE(set.test('c'));
    EXPECT_FALSE(set.test('d'));
    EXPECT_TRUE(ExecCore::distinctBytes({}).empty());
}

TEST(ExecCore, LatchedGapReportsEveryCycleOnceEnabled)
{
    // a.* with a reporting star: after 'a', the star reports on every
    // remaining symbol.
    Application app("t", "T");
    Nfa nfa("g");
    StateId a = nfa.addState(SymbolSet::single('a'), StartKind::AllInput);
    StateId star = nfa.addState(SymbolSet::all(), StartKind::None, true);
    nfa.addEdge(a, star);
    nfa.addEdge(star, star);
    nfa.finalize();
    app.addNfa(std::move(nfa));

    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("xxaxxx"));
    // star enabled from position 3 on: reports at 3, 4, 5.
    ASSERT_EQ(r.reports.size(), 3u);
    EXPECT_EQ(r.reports[0].position, 3u);
    EXPECT_EQ(r.reports[2].position, 5u);
}

TEST(ExecCore, LatchedCascadePermanentlyEnablesSuccessors)
{
    // start(.)* -> b : the universal self-loop start latches; 'b' must
    // then fire at every 'b' from position 1 on.
    Application app("t", "T");
    Nfa nfa("g");
    StateId star = nfa.addState(SymbolSet::all(), StartKind::AllInput);
    StateId b = nfa.addState(SymbolSet::single('b'), StartKind::None,
                             true);
    nfa.addEdge(star, star);
    nfa.addEdge(star, b);
    nfa.finalize();
    app.addNfa(std::move(nfa));

    FlatAutomaton fa(app);
    Engine engine(fa);
    SimResult r = engine.run(bytes("bbxb"));
    // b is enabled from position 1 (star activates at 0): hits at 1, 3.
    ASSERT_EQ(r.reports.size(), 2u);
    EXPECT_EQ(r.reports[0].position, 1u);
    EXPECT_EQ(r.reports[1].position, 3u);
}

TEST(ExecCore, UniversalWithoutSelfLoopDoesNotLatch)
{
    // a -> any -> c: the wildcard has no self-loop; it is enabled for
    // exactly one cycle after each 'a'.
    Application app("t", "T");
    app.addNfa(compileRegex("a.c", "t"));
    FlatAutomaton fa(app);
    Engine engine(fa);
    EXPECT_EQ(engine.run(bytes("aXc")).reports.size(), 1u);
    EXPECT_EQ(engine.run(bytes("aXXc")).reports.size(), 0u);

    // The same wildcard as a start-of-data state reaches enableState
    // instead: at reset, and again when a snapshot is restored.
    Application sod("t", "T");
    Nfa nfa("g");
    StateId any = nfa.addState(SymbolSet::all(), StartKind::StartOfData);
    StateId c = nfa.addState(SymbolSet::single('c'), StartKind::None,
                             true);
    nfa.addEdge(any, c);
    nfa.finalize();
    sod.addNfa(std::move(nfa));
    FlatAutomaton sod_fa(sod);
    Engine sparse(sod_fa, EngineMode::Sparse);
    EXPECT_EQ(sparse.run(bytes("Xc")).reports.size(), 1u);
    EXPECT_EQ(sparse.run(bytes("XXc")).reports.size(), 0u);
    EXPECT_EQ(sparse.run(bytes("Xcc")).reports.size(), 1u);

    ExecCore core(sod_fa);
    const Bitset256 alphabet = ExecCore::distinctBytes(bytes("Xc"));
    core.reset(alphabet, nullptr, /*install_starts=*/true);
    ExecCore::Snapshot snap;
    core.saveState(&snap);
    ExecCore restored(sod_fa);
    restored.restoreState(alphabet, snap);
    ReportList reports;
    restored.step('X', 0, &reports);
    restored.step('X', 1, &reports);
    restored.step('c', 2, &reports);
    EXPECT_TRUE(reports.empty());
}

TEST(ExecCore, UniversalityIsRelativeToTheInputAlphabet)
{
    // The gap accepts only [ab]; over an input containing just a/b it
    // is universal and latches; over an input with 'z' it is not.
    Application app("t", "T");
    Nfa nfa("g");
    StateId a = nfa.addState(SymbolSet::single('a'), StartKind::AllInput);
    StateId gap = nfa.addState(parseSymbolSet("[ab]"), StartKind::None);
    StateId b = nfa.addState(SymbolSet::single('b'), StartKind::None,
                             true);
    nfa.addEdge(a, gap);
    nfa.addEdge(gap, gap);
    nfa.addEdge(gap, b);
    nfa.finalize();
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);
    Engine engine(fa);

    // Alphabet {a, b}: gap latches after the first 'a'; every later 'b'
    // reports.
    EXPECT_EQ(engine.run(bytes("aabbb")).reports.size(), 3u);
    // Alphabet {a, b, z}: 'z' kills the gap, so only the 'b' right after
    // the gap run reports; the final 'b' has no live thread.
    EXPECT_EQ(engine.run(bytes("aabzb")).reports.size(), 1u);
}

TEST(ExecCore, IdleTracksPermanence)
{
    Application app("t", "T");
    Nfa nfa("g");
    StateId s = nfa.addState(SymbolSet::all(), StartKind::None);
    nfa.addEdge(s, s);
    nfa.finalize(false);
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);

    ExecCore core(fa);
    core.reset(ExecCore::distinctBytes(bytes("xx")), nullptr, false);
    EXPECT_TRUE(core.idle());
    core.enableState(0); // universal + self-loop: latches immediately
    EXPECT_FALSE(core.idle());
    ReportList reports;
    core.step('x', 0, &reports);
    EXPECT_FALSE(core.idle()); // latched forever
}

TEST(ExecCore, ProfilerSeesLatchedSuccessors)
{
    // start(.)* -> q where 'q' never occurs: q is still *enabled*
    // (hence hot) from cycle 1 on.
    Application app("t", "T");
    Nfa nfa("g");
    StateId star = nfa.addState(SymbolSet::all(), StartKind::AllInput);
    StateId q = nfa.addState(SymbolSet::single('q'), StartKind::None);
    nfa.addEdge(star, star);
    nfa.addEdge(star, q);
    nfa.finalize();
    app.addNfa(std::move(nfa));
    FlatAutomaton fa(app);
    Engine engine(fa);
    HotStateProfiler prof(fa.size());
    engine.run(bytes("xy"), &prof);
    EXPECT_TRUE(prof.hot(0));
    EXPECT_TRUE(prof.hot(1));
}

/** Property: heavy-wildcard random NFAs still match the naive oracle. */
TEST(ExecCore, PropertyWildcardHeavyMatchesNaive)
{
    Rng rng(31337);
    for (int trial = 0; trial < 40; ++trial) {
        testing::RandomNfaParams params;
        params.universalProb = 0.5; // stress latching hard
        params.backEdgeProb = 0.3;
        params.reportProb = 0.35;
        Application app =
            testing::randomApplication(rng, 1 + rng.index(4), params);
        std::vector<uint8_t> input = testing::randomInput(rng, 200, 8);

        FlatAutomaton fa(app);
        Engine engine(fa);
        ReportList got = engine.run(input).reports;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

} // namespace
} // namespace sparseap
