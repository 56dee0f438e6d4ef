/**
 * @file
 * Micro-benchmarks (google-benchmark) for the substrate hot paths: the
 * functional engine's symbols/second on representative workloads, the
 * regex compiler, topology analysis, partition construction, the dense
 * kernel at each SIMD tier the host supports, and the NFA/DFA hybrid on
 * small-scale workloads whose hot set actually determinizes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "common/vec.h"
#include "core/sparseap.h"
#include "sim/hot_dfa.h"
#include "store/cache.h"
#include "store/format.h"

using namespace sparseap;

namespace {

/** Shared small-scale workload so every benchmark reuses generation. */
const LoadedApp &
sharedApp(const char *abbr)
{
    static ExperimentRunner runner;
    return runner.load(abbr);
}

void
BM_EngineThroughput(benchmark::State &state, const char *abbr)
{
    const LoadedApp &app = sharedApp(abbr);
    FlatAutomaton fa(app.workload.app);
    Engine engine(fa);
    const std::span<const uint8_t> input(app.input.data(),
                                         std::min<size_t>(
                                             app.input.size(), 65536));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(input).reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(input.size()));
}

/**
 * Same workload through a pinned stepping core — the dense-vs-sparse
 * comparison. On dense live sets (the HM Hamming grid, LV Levenshtein)
 * the bit-parallel core should win by multiples; on sparse live sets
 * (Snort) the sparse core should hold its lead.
 */
void
BM_EngineCore(benchmark::State &state, const char *abbr, EngineMode mode)
{
    const LoadedApp &app = sharedApp(abbr);
    FlatAutomaton fa(app.workload.app);
    Engine engine(fa, mode);
    const std::span<const uint8_t> input(app.input.data(),
                                         std::min<size_t>(
                                             app.input.size(), 65536));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(input).reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(input.size()));
}

/**
 * Dense kernel with the class-compressed accept table against the raw
 * 256-row layout — what the byte→equivalence-class map buys on each
 * workload family. Counters record the class count and accept-table
 * footprint of the chosen layout.
 */
void
BM_DenseKernel(benchmark::State &state, const char *abbr,
               FlatAutomaton::DenseCompression compression)
{
    const LoadedApp &app = sharedApp(abbr);
    FlatAutomaton fa(app.workload.app, compression);
    Engine engine(fa, EngineMode::Dense);
    const std::span<const uint8_t> input(app.input.data(),
                                         std::min<size_t>(
                                             app.input.size(), 65536));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(input).reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(input.size()));
    state.counters["classes"] = static_cast<double>(
        fa.denseView().classes);
    state.counters["accept_KiB"] = static_cast<double>(
        fa.denseView().acceptBytes()) / 1024.0;
}

/**
 * Dense kernel with the word sweeps pinned to one SIMD tier. The scalar
 * row is the pre-vectorization baseline; the ratio of the widest row to
 * it is the headline kernel speedup (docs/PERFORMANCE.md). Registered
 * dynamically in main() for the tiers this host supports.
 */
void
BM_DenseKernelIsa(benchmark::State &state, const char *abbr,
                  simd::Isa isa)
{
    if (!simd::setIsa(isa)) {
        state.SkipWithError("ISA not supported on this host");
        return;
    }
    const LoadedApp &app = sharedApp(abbr);
    FlatAutomaton fa(app.workload.app);
    Engine engine(fa, EngineMode::Dense); // caches the forced op table
    const std::span<const uint8_t> input(app.input.data(),
                                         std::min<size_t>(
                                             app.input.size(), 65536));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(input).reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(input.size()));
    simd::setIsa(simd::bestIsa());
}

/**
 * Small-scale workload pinned in memory for the hybrid benchmarks: the
 * full-scale rule sets all blow the determinization budget (see the
 * census table), so the DFA-vs-NFA comparison runs at the registry's
 * test scale, where Bro217/EM/LV/Brill-class automata determinize.
 */
struct SmallBench
{
    Workload w;
    FlatAutomaton fa;
    std::vector<uint8_t> input;

    explicit SmallBench(const char *abbr)
        : w(generateWorkload(abbr, 7, 5)), fa(w.app)
    {
        size_t bytes = 65536;
        if (w.inputBytesCap > 0)
            bytes = std::min(bytes, w.inputBytesCap);
        Rng rng(20180621);
        input = synthesizeInput(w.input, bytes, rng);
    }
};

const SmallBench &
smallBench(const char *abbr)
{
    static std::map<std::string, std::unique_ptr<SmallBench>> cache;
    std::unique_ptr<SmallBench> &slot = cache[abbr];
    if (!slot)
        slot = std::make_unique<SmallBench>(abbr);
    return *slot;
}

/**
 * Sparse / dense / DFA on one small-scale workload. The dfa counter
 * records whether the run actually executed on the DFA table (1) or
 * fell back to the dense core after a budget bailout (0), so a bailing
 * workload can't masquerade as a DFA win.
 */
void
BM_HybridCore(benchmark::State &state, const char *abbr, EngineMode mode)
{
    const SmallBench &b = smallBench(abbr);
    Engine engine(b.fa, mode);
    bool used_dfa = false;
    for (auto _ : state) {
        SimResult r = engine.run(b.input);
        used_dfa = r.usedDfa;
        benchmark::DoNotOptimize(r.reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(b.input.size()));
    state.counters["dfa"] = used_dfa ? 1 : 0;
    if (mode == EngineMode::Dfa) {
        auto dfa = b.fa.hotDfaIfBuilt();
        state.counters["dfa_states"] =
            dfa ? static_cast<double>(dfa->states()) : 0;
    }
}

/**
 * Dense kernel with the quiescence input skip pinned on or off
 * (docs/PERFORMANCE.md). The on/off ratio per workload is the headline
 * input-skip speedup; the skip_ratio counter records the fraction of
 * input the on-row consumed without stepping.
 */
void
BM_DenseSkip(benchmark::State &state, const char *abbr, bool skip)
{
    const LoadedApp &app = sharedApp(abbr);
    FlatAutomaton fa(app.workload.app);
    Engine engine(fa, EngineMode::Dense);
    engine.setInputSkip(skip);
    const std::span<const uint8_t> input(app.input.data(),
                                         std::min<size_t>(
                                             app.input.size(), 65536));
    uint64_t skipped = 0;
    for (auto _ : state) {
        SimResult r = engine.run(input);
        skipped = r.skippedSymbols;
        benchmark::DoNotOptimize(r.reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(input.size()));
    state.counters["skip_ratio"] =
        input.empty() ? 0.0
                      : static_cast<double>(skipped) /
                            static_cast<double>(input.size());
}

/** DFA-table core with the input skip pinned on or off (small scale). */
void
BM_DfaSkip(benchmark::State &state, const char *abbr, bool skip)
{
    const SmallBench &b = smallBench(abbr);
    Engine engine(b.fa, EngineMode::Dfa);
    engine.setInputSkip(skip);
    uint64_t skipped = 0;
    uint64_t jumps = 0;
    for (auto _ : state) {
        SimResult r = engine.run(b.input);
        skipped = r.skippedSymbols;
        jumps = r.skipJumps;
        benchmark::DoNotOptimize(r.reports.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(b.input.size()));
    state.counters["jumps"] = static_cast<double>(jumps);
    state.counters["skip_ratio"] =
        b.input.empty() ? 0.0
                        : static_cast<double>(skipped) /
                              static_cast<double>(b.input.size());
}

void
BM_RegexCompile(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compileRegex("a(bc|de)*f.{0,8}[g-k]+end", "bench").size());
    }
}

void
BM_Topology(benchmark::State &state, const char *abbr)
{
    const LoadedApp &app = sharedApp(abbr);
    for (auto _ : state) {
        AppTopology topo(app.workload.app);
        benchmark::DoNotOptimize(topo.maxOrder());
    }
}

void
BM_Partition(benchmark::State &state, const char *abbr)
{
    const LoadedApp &app = sharedApp(abbr);
    const AppTopology &topo = app.topology();
    const FlatAutomaton fa(app.workload.app);
    const HotColdProfile prof = profileApplication(
        fa, std::span<const uint8_t>(app.input.data(),
                                     app.input.size() / 100));
    const PartitionLayers layers = chooseLayers(topo, prof);
    for (auto _ : state) {
        PartitionedApp part = partitionApplication(topo, layers);
        benchmark::DoNotOptimize(part.hot.totalStates());
    }
}

/**
 * Per-workload symbol-class census: class count, compressed vs raw
 * accept-table bytes and the compression ratio, plus the geometric mean
 * over all selected apps. Printed through ExperimentRunner::printTable so
 * the numbers also land in the SPARSEAP_JSON JSON Lines stream.
 */
void
printSymbolClassTable()
{
    printSection("Symbol classes / dense accept-table compression");
    static ExperimentRunner runner;
    Table table({"App", "States", "Classes", "Accept KiB", "Raw KiB",
                 "Ratio"});
    const size_t apps = runner.selectApps("HML").size();
    std::vector<std::vector<std::string>> rows(apps);
    std::vector<double> ratios(apps, 0.0);
    runner.forEachApp("HML", [&](const LoadedApp &app, size_t i) {
        const FlatAutomaton &fa = app.flat();
        const FlatAutomaton::DenseView &dv = fa.denseView();
        const double ratio = static_cast<double>(dv.rawAcceptBytes()) /
                             static_cast<double>(dv.acceptBytes());
        rows[i] = {app.entry.abbr,
                   std::to_string(fa.size()),
                   std::to_string(dv.classes),
                   Table::fmt(dv.acceptBytes() / 1024.0, 1),
                   Table::fmt(dv.rawAcceptBytes() / 1024.0, 1),
                   Table::fmt(ratio, 2)};
        ratios[i] = ratio;
    });
    double log_ratio_sum = 0;
    for (double r : ratios)
        log_ratio_sum += std::log(r);
    for (auto &row : rows)
        table.addRow(std::move(row));
    if (apps > 0)
        table.addRow({"geo-mean", "", "", "", "",
                      Table::fmt(std::exp(log_ratio_sum / apps), 2)});
    runner.printTable(table);
}

/**
 * Per-workload determinization census at the hybrid benchmarks' scale:
 * NFA states, symbol classes, and either the resulting DFA shape or the
 * budget bailout. Full-scale rule sets bail across the board — subset
 * construction over thousands of concurrent patterns is exponential —
 * which is exactly why the engine treats the DFA as an opportunistic
 * upgrade with the dense core as the always-correct fallback.
 */
void
printDfaCensusTable()
{
    printSection("Hot-set determinization census (test scale, default "
                 "budget)");
    static ExperimentRunner runner;
    Table table({"App", "NfaStates", "Classes", "DfaStates",
                 "Table KiB", "Result"});
    size_t built = 0;
    const HotDfa::Limits limits = HotDfa::Limits::fromOptions();
    for (const auto &entry : appCatalog()) {
        Workload w = generateWorkload(entry.abbr, 7, 5);
        FlatAutomaton fa(w.app);
        auto dfa = HotDfa::build(fa, limits);
        built += dfa ? 1 : 0;
        table.addRow({entry.abbr, std::to_string(fa.size()),
                      std::to_string(fa.symbolClassCount()),
                      dfa ? std::to_string(dfa->states()) : "-",
                      dfa ? Table::fmt(dfa->tableBytes() / 1024.0, 1)
                          : "-",
                      dfa ? "dfa" : "bail"});
    }
    table.addRow({"built", std::to_string(built), "", "", "", ""});
    runner.printTable(table);
}

/** Order-sensitive digest of a report stream (store/format.h hash). */
uint64_t
reportDigest(const ReportList &reports)
{
    store::DigestBuilder d;
    for (const Report &r : reports) {
        d.add(r.position); // full 64-bit stream offset
        d.add(r.state);
    }
    return d.digest();
}

/**
 * Per-workload input-skip census: the fraction of input the quiescence
 * skip consumed without stepping, the jump count, the skip-on run's
 * report count, and the skip-on vs skip-off report digests on the dense
 * core. The digests must match — the skip is an optimization, not an
 * approximation — so main() exits nonzero on a mismatch and the CI
 * perf-smoke job inherits the failure. A row whose stream is empty
 * compares nothing, so the count of such rows is printed under the
 * table.
 */
bool
printInputSkipTable()
{
    printSection("Quiescence input skip (SPARSEAP_INPUT_SKIP census)");
    static ExperimentRunner runner;
    Table table({"App", "Input", "Skipped", "Ratio", "Jumps", "Reports",
                 "Digest", "Match"});
    // The sweep may run apps on several lanes: each writes its own slot.
    const size_t apps = runner.selectApps("HML").size();
    std::vector<std::vector<std::string>> rows(apps);
    std::vector<uint8_t> matched(apps, 1);
    std::vector<uint8_t> empty(apps, 0);
    runner.forEachApp("HML", [&](const LoadedApp &app, size_t i) {
        const FlatAutomaton &fa = app.flat();
        const std::span<const uint8_t> input(app.input.data(),
                                             std::min<size_t>(
                                                 app.input.size(),
                                                 65536));
        Engine on(fa, EngineMode::Dense);
        on.setInputSkip(true);
        const SimResult r_on = on.run(input);
        Engine off(fa, EngineMode::Dense);
        off.setInputSkip(false);
        const SimResult r_off = off.run(input);
        const uint64_t d_on = reportDigest(r_on.reports);
        const uint64_t d_off = reportDigest(r_off.reports);
        matched[i] = d_on == d_off ? 1 : 0;
        empty[i] = r_on.reports.empty() ? 1 : 0;
        const double ratio =
            input.empty() ? 0.0
                          : static_cast<double>(r_on.skippedSymbols) /
                                static_cast<double>(input.size());
        rows[i] = {app.entry.abbr,
                   std::to_string(input.size()),
                   std::to_string(r_on.skippedSymbols),
                   Table::fmt(ratio, 3),
                   std::to_string(r_on.skipJumps),
                   std::to_string(r_on.reports.size()),
                   store::digestHex(d_on),
                   matched[i] ? "ok" : "MISMATCH"};
    });
    for (auto &row : rows)
        table.addRow(std::move(row));
    runner.printTable(table);
    std::printf("%zu of %zu rows compared an empty report stream\n",
                static_cast<size_t>(
                    std::count(empty.begin(), empty.end(), 1)),
                apps);
    const bool all_match =
        std::count(matched.begin(), matched.end(), 0) == 0;
    return all_match;
}

} // namespace

BENCHMARK_CAPTURE(BM_EngineThroughput, bro217, "Bro217");
BENCHMARK_CAPTURE(BM_EngineThroughput, em, "EM");
BENCHMARK_CAPTURE(BM_EngineThroughput, lv, "LV");
BENCHMARK_CAPTURE(BM_EngineThroughput, tcp, "TCP");
BENCHMARK_CAPTURE(BM_EngineCore, hm_sparse, "HM", EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_EngineCore, hm_dense, "HM", EngineMode::Dense);
BENCHMARK_CAPTURE(BM_EngineCore, hm_auto, "HM", EngineMode::Auto);
BENCHMARK_CAPTURE(BM_EngineCore, lv_sparse, "LV", EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_EngineCore, lv_dense, "LV", EngineMode::Dense);
BENCHMARK_CAPTURE(BM_EngineCore, snort_sparse, "Snort",
                  EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_EngineCore, snort_dense, "Snort",
                  EngineMode::Dense);
BENCHMARK_CAPTURE(BM_EngineCore, snort_auto, "Snort", EngineMode::Auto);
BENCHMARK_CAPTURE(BM_DenseKernel, snort_classes, "Snort",
                  FlatAutomaton::DenseCompression::Classes);
BENCHMARK_CAPTURE(BM_DenseKernel, snort_raw, "Snort",
                  FlatAutomaton::DenseCompression::Raw);
BENCHMARK_CAPTURE(BM_DenseKernel, cav_classes, "CAV",
                  FlatAutomaton::DenseCompression::Classes);
BENCHMARK_CAPTURE(BM_DenseKernel, cav_raw, "CAV",
                  FlatAutomaton::DenseCompression::Raw);
BENCHMARK_CAPTURE(BM_DenseKernel, pen_classes, "PEN",
                  FlatAutomaton::DenseCompression::Classes);
BENCHMARK_CAPTURE(BM_DenseKernel, pen_raw, "PEN",
                  FlatAutomaton::DenseCompression::Raw);
BENCHMARK_CAPTURE(BM_DenseKernel, brill_classes, "Brill",
                  FlatAutomaton::DenseCompression::Classes);
BENCHMARK_CAPTURE(BM_DenseKernel, brill_raw, "Brill",
                  FlatAutomaton::DenseCompression::Raw);
BENCHMARK_CAPTURE(BM_DenseKernel, hm_classes, "HM",
                  FlatAutomaton::DenseCompression::Classes);
BENCHMARK_CAPTURE(BM_DenseKernel, hm_raw, "HM",
                  FlatAutomaton::DenseCompression::Raw);
BENCHMARK_CAPTURE(BM_HybridCore, bro217_sparse, "Bro217",
                  EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_HybridCore, bro217_dense, "Bro217",
                  EngineMode::Dense);
BENCHMARK_CAPTURE(BM_HybridCore, bro217_dfa, "Bro217", EngineMode::Dfa);
BENCHMARK_CAPTURE(BM_HybridCore, em_sparse, "EM", EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_HybridCore, em_dense, "EM", EngineMode::Dense);
BENCHMARK_CAPTURE(BM_HybridCore, em_dfa, "EM", EngineMode::Dfa);
BENCHMARK_CAPTURE(BM_HybridCore, lv_sparse, "LV", EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_HybridCore, lv_dense, "LV", EngineMode::Dense);
BENCHMARK_CAPTURE(BM_HybridCore, lv_dfa, "LV", EngineMode::Dfa);
BENCHMARK_CAPTURE(BM_HybridCore, brill_sparse, "Brill",
                  EngineMode::Sparse);
BENCHMARK_CAPTURE(BM_HybridCore, brill_dense, "Brill",
                  EngineMode::Dense);
BENCHMARK_CAPTURE(BM_HybridCore, brill_dfa, "Brill", EngineMode::Dfa);
BENCHMARK_CAPTURE(BM_DenseSkip, snort_on, "Snort", true);
BENCHMARK_CAPTURE(BM_DenseSkip, snort_off, "Snort", false);
BENCHMARK_CAPTURE(BM_DenseSkip, cav_on, "CAV", true);
BENCHMARK_CAPTURE(BM_DenseSkip, cav_off, "CAV", false);
BENCHMARK_CAPTURE(BM_DenseSkip, pen_on, "PEN", true);
BENCHMARK_CAPTURE(BM_DenseSkip, pen_off, "PEN", false);
BENCHMARK_CAPTURE(BM_DenseSkip, hm_on, "HM", true);
BENCHMARK_CAPTURE(BM_DenseSkip, hm_off, "HM", false);
BENCHMARK_CAPTURE(BM_DenseSkip, lv_on, "LV", true);
BENCHMARK_CAPTURE(BM_DenseSkip, lv_off, "LV", false);
BENCHMARK_CAPTURE(BM_DenseSkip, brill_on, "Brill", true);
BENCHMARK_CAPTURE(BM_DenseSkip, brill_off, "Brill", false);
BENCHMARK_CAPTURE(BM_DfaSkip, bro217_on, "Bro217", true);
BENCHMARK_CAPTURE(BM_DfaSkip, bro217_off, "Bro217", false);
BENCHMARK_CAPTURE(BM_DfaSkip, brill_on, "Brill", true);
BENCHMARK_CAPTURE(BM_DfaSkip, brill_off, "Brill", false);
BENCHMARK(BM_RegexCompile);
BENCHMARK_CAPTURE(BM_Topology, tcp, "TCP");
BENCHMARK_CAPTURE(BM_Partition, tcp, "TCP");

namespace {

/** One BM_DenseKernelIsa row per supported tier per kernel workload. */
void
registerIsaBenchmarks()
{
    static const char *const kApps[] = {"Snort", "CAV", "PEN", "Brill"};
    for (simd::Isa isa :
         {simd::Isa::Scalar, simd::Isa::Sse2, simd::Isa::Avx2,
          simd::Isa::Avx512}) {
        if (!simd::isaSupported(isa))
            continue;
        for (const char *abbr : kApps) {
            std::string name = "BM_DenseKernelIsa/";
            name += abbr;
            name += '_';
            name += simd::isaName(isa);
            benchmark::RegisterBenchmark(
                name.c_str(), [abbr, isa](benchmark::State &state) {
                    BM_DenseKernelIsa(state, abbr, isa);
                });
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    printSymbolClassTable();
    printDfaCensusTable();
    const bool skip_digests_match = printInputSkipTable();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    registerIsaBenchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!skip_digests_match) {
        std::fprintf(stderr,
                     "FAIL: input-skip on/off report digests diverged "
                     "(see the census table above)\n");
        return 1;
    }
    return 0;
}
