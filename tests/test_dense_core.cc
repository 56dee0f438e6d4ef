/**
 * @file
 * Property tests pitting the bit-parallel dense core against the sparse
 * core (and the naive oracle): both engine cores must emit identical
 * (position, state) report multisets on random automata and on every
 * registered workload, and the auto heuristic's mid-run handover must be
 * invisible in the output.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec.h"
#include "regex/glushkov.h"
#include "sim/dense_core.h"
#include "sim/engine.h"
#include "support/naive_sim.h"
#include "support/random_nfa.h"
#include "workloads/registry.h"

namespace sparseap {
namespace {

ReportList
sortedReports(Engine &engine, std::span<const uint8_t> input)
{
    ReportList r = engine.run(input).reports;
    std::sort(r.begin(), r.end());
    return r;
}

/** Dense == sparse == naive oracle on random automata. */
TEST(DenseCore, PropertyMatchesSparseAndNaiveOnRandomAutomata)
{
    Rng rng(427);
    for (int trial = 0; trial < 60; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.sodProb = trial % 3 == 0 ? 0.5 : 0.0;
        params.universalProb = trial % 2 == 0 ? 0.3 : 0.12;
        Application app = testing::randomApplication(
            rng, 1 + rng.index(5), params);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 250, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        const ReportList want_sparse = sortedReports(sparse, input);
        const ReportList got_dense = sortedReports(dense, input);
        EXPECT_EQ(got_dense, want_sparse) << "trial " << trial;
        EXPECT_EQ(got_dense, testing::naiveSimulate(app, input))
            << "trial " << trial;
    }
}

/** Auto mode (with possible mid-run handover) == sparse. */
TEST(DenseCore, PropertyAutoModeMatchesSparse)
{
    Rng rng(428);
    for (int trial = 0; trial < 20; ++trial) {
        testing::RandomNfaParams params;
        params.backEdgeProb = 0.3;
        params.reportProb = 0.3;
        params.universalProb = 0.3; // keep the live set dense
        params.extraStartProb = 0.5;
        // Enough NFAs to clear the auto heuristic's minimum size.
        Application app = testing::randomApplication(rng, 30, params);
        ASSERT_GE(app.totalStates(), Engine::kMinDenseStates);
        std::vector<uint8_t> input =
            testing::randomInput(rng, 400, params.alphabetSize);

        FlatAutomaton fa(app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine aut(fa, EngineMode::Auto);
        EXPECT_EQ(sortedReports(aut, input), sortedReports(sparse, input))
            << "trial " << trial;
    }
}

/** The heuristic actually fires on a clearly dense automaton. */
TEST(DenseCore, AutoHandsOverOnDenseLiveSet)
{
    // Hundreds of always-enabled starts: the live set is half the
    // automaton from cycle 0, far above the handover threshold. The
    // a.{12} window blows the DFA budget, so auto mode probes instead
    // of running the table.
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

    Engine aut(fa, EngineMode::Auto);
    SimResult auto_run = aut.run(input);
    EXPECT_TRUE(auto_run.usedDenseCore);

    Engine sparse(fa, EngineMode::Sparse);
    SimResult sparse_run = sparse.run(input);
    EXPECT_FALSE(sparse_run.usedDenseCore);

    std::sort(auto_run.reports.begin(), auto_run.reports.end());
    std::sort(sparse_run.reports.begin(), sparse_run.reports.end());
    EXPECT_EQ(auto_run.reports, sparse_run.reports);
}

/** ...and stays sparse on a clearly sparse automaton. */
TEST(DenseCore, AutoStaysSparseOnSparseLiveSet)
{
    Application app("sparse", "S");
    for (int i = 0; i < 300; ++i) {
        app.addNfa(compileRegex("q" + std::to_string(i % 10) + "xyzw",
                                "p" + std::to_string(i)));
    }
    app.addNfa(compileRegex("a.{12}", "w")); // no DFA: the probe runs
    FlatAutomaton fa(app);
    ASSERT_EQ(fa.ensureHotDfa(), nullptr);
    std::vector<uint8_t> input(1000, 'z'); // nothing past the starts
    Engine aut(fa, EngineMode::Auto);
    EXPECT_FALSE(aut.run(input).usedDenseCore);
    EXPECT_EQ(aut.resolvedMode(), EngineMode::Sparse);
}

/** Dense == sparse on every registered workload (small scale/input). */
TEST(DenseCore, PropertyMatchesSparseOnAllRegisteredWorkloads)
{
    Rng input_rng(20180620);
    for (const auto &entry : appCatalog()) {
        // 5% scale keeps generation fast while covering every generator.
        Workload w = generateWorkload(entry.abbr, 7, 5);
        size_t bytes = 1536;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        const std::vector<uint8_t> input =
            synthesizeInput(w.input, bytes, input_rng);

        FlatAutomaton fa(w.app);
        Engine sparse(fa, EngineMode::Sparse);
        Engine dense(fa, EngineMode::Dense);
        Engine aut(fa, EngineMode::Auto);
        const ReportList want = sortedReports(sparse, input);
        EXPECT_EQ(sortedReports(dense, input), want) << entry.abbr;
        EXPECT_EQ(sortedReports(aut, input), want) << entry.abbr;
    }
}

/**
 * A chain-heavy application over the 4-symbol alphabet {0..3} whose live
 * set stays dense: every NFA is a spine of chain states (successor
 * exactly s+1) fed by an always-enabled start, with broad symbol sets so
 * activations run far down the spines. Mixed in: reporting chain
 * states, reporting terminals, fan-out edges, self-loops, universal
 * self-loop states (latched by the core) and all-reporting spines of 64+
 * states, so some words hold only reporting fan-out bits.
 */
Application
chainHeavyApplication(Rng &rng)
{
    Application app("flat", "F");
    const size_t nfas = 12 + rng.index(9);
    for (size_t k = 0; k < nfas; ++k) {
        const bool all_reporting = rng.chance(0.2);
        const size_t len = all_reporting ? 64 + rng.index(65)
                                         : 30 + rng.index(91);
        Nfa nfa("f" + std::to_string(k));
        for (size_t i = 0; i < len; ++i) {
            SymbolSet set;
            const bool universal = !all_reporting && i > 0 &&
                                   rng.chance(0.03);
            if (universal) {
                set = SymbolSet::all();
            } else {
                for (uint8_t c = 0; c < 4; ++c)
                    if (rng.chance(0.8))
                        set.set(c);
                if (set.empty())
                    set.set(static_cast<uint8_t>(rng.index(4)));
            }
            const bool reporting =
                all_reporting || i + 1 == len || rng.chance(0.15);
            nfa.addState(set,
                         i == 0 ? StartKind::AllInput : StartKind::None,
                         reporting);
            if (universal)
                nfa.addEdge(static_cast<StateId>(i),
                            static_cast<StateId>(i));
        }
        for (size_t i = 0; i + 1 < len; ++i) {
            const auto u = static_cast<StateId>(i);
            nfa.addEdge(u, u + 1);
            if (all_reporting)
                continue;
            if (rng.chance(0.08))
                nfa.addEdge(u, static_cast<StateId>(rng.index(len)));
            if (rng.chance(0.04))
                nfa.addEdge(u, u);
        }
        nfa.finalize();
        app.addNfa(std::move(nfa));
    }
    return app;
}

/**
 * The flat sweep (chain shift plus the fan-out-row walk) against the
 * sparse core and the naive oracle, under every supported SIMD tier.
 * Guards against vacuous passes: each trial must run flat cycles and
 * emit reports, and across trials the views must contain a chain state
 * in bit 63 (a carry into the next word) and a word whose fan-out bits
 * are all reporting states.
 */
TEST(DenseCore, FlatSweepMatchesSparseAndNaiveOnChainHeavyAutomata)
{
    std::vector<simd::Isa> isas;
    for (simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Sse2,
                          simd::Isa::Avx2, simd::Isa::Avx512})
        if (simd::isaSupported(isa))
            isas.push_back(isa);

    Rng rng(20261019);
    bool saw_carry = false;
    bool saw_reporting_only_word = false;
    for (int trial = 0; trial < 16; ++trial) {
        const Application app = chainHeavyApplication(rng);
        const std::vector<uint8_t> input = testing::randomInput(rng, 400, 4);
        FlatAutomaton fa(app);
        const FlatAutomaton::DenseView &dv = fa.denseView();
        for (size_t w = 0; w < dv.words; ++w) {
            saw_carry = saw_carry || (dv.chain[w] >> 63) != 0;
            saw_reporting_only_word =
                saw_reporting_only_word ||
                (dv.fanout[w] != 0 && dv.fanout[w] == dv.reporting[w]);
        }

        Engine sparse(fa, EngineMode::Sparse);
        const ReportList want = sortedReports(sparse, input);
        ASSERT_EQ(want, testing::naiveSimulate(app, input))
            << "trial " << trial;
        ASSERT_GT(want.size(), 0u) << "trial " << trial;

        for (simd::Isa isa : isas) {
            ASSERT_TRUE(simd::setIsa(isa));
            DenseCore core(fa);
            core.reset(/*install_starts=*/true);
            ReportList got;
            for (size_t i = 0; i < input.size(); ++i)
                core.step(input[i], i, &got);
            const DenseCore::StepStats &st = core.stepStats();
            EXPECT_GT(st.cycles, st.skipCycles)
                << simd::isaName(isa) << " trial " << trial;
            // Reports leave the core in (position, state) order.
            EXPECT_TRUE(std::is_sorted(got.begin(), got.end()))
                << simd::isaName(isa) << " trial " << trial;
            EXPECT_EQ(got, want)
                << simd::isaName(isa) << " trial " << trial;
        }
        simd::setIsa(simd::bestIsa());
    }
    EXPECT_TRUE(saw_carry);
    EXPECT_TRUE(saw_reporting_only_word);
}

/** Dense handles empty input and empty automata without tripping. */
TEST(DenseCore, EdgeCases)
{
    Application app("a", "A");
    app.addNfa(compileRegex("ab", "p"));
    FlatAutomaton fa(app);
    Engine dense(fa, EngineMode::Dense);
    EXPECT_TRUE(dense.run({}).reports.empty());

    const std::string s = "abxab";
    const std::span<const uint8_t> input(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    EXPECT_EQ(dense.run(input).reports.size(), 2u);
    // Reusable across runs, like the sparse engine.
    EXPECT_EQ(dense.run(input).reports.size(), 2u);
}

} // namespace
} // namespace sparseap
