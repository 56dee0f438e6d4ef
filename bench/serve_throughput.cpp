/**
 * @file
 * Serving-path throughput: end-to-end bytes/sec and request latency of
 * the apserved stack — framing protocol over a Unix-domain socket,
 * admission queue, MatchService session table — against the same
 * automata, measured at B ∈ {1, 8, 32} concurrent client streams.
 *
 * The server runs in-process on a temp socket; every stream is its own
 * connection (matching real clients) feeding 16 KiB chunks. Each
 * configuration runs twice — serving-plane observability off and on
 * (rolling-window sampler, per-tenant attribution, request tracing;
 * docs/OBSERVABILITY.md) — so the cost of the always-on telemetry is a
 * printed column pair, not a guess. Latency percentiles come from the
 * observability-on run, the shape operators actually deploy.
 *
 * The "DFA %" column is the share of the observability-on run's bytes
 * the tenant executed on the DFA table, read from its
 * serve.dfa_cycles{tenant=…} series: auto tenants whose automaton
 * determinizes run there from their first byte.
 *
 * Correctness gate: per stream and per run, the sorted digest of every
 * report the socket returned (feeds + close) must equal the digest of
 * a local whole-input Engine::run over the same bytes — the daemon is
 * a transport, never an approximation — and main() exits nonzero on
 * any mismatch or any shed at this (unsaturated) load.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "core/sparseap.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "store/format.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"

using namespace sparseap;
using serve::ServeClient;

namespace {

constexpr size_t kStreamCounts[] = {1, 8, 32};
constexpr size_t kChunkBytes = 16 * 1024;

/** Order-canonicalized digest of a report stream. */
uint64_t
sortedDigest(ReportList reports)
{
    std::sort(reports.begin(), reports.end());
    store::DigestBuilder d;
    for (const Report &r : reports) {
        d.add(r.position);
        d.add(r.state);
    }
    return d.digest();
}

struct StreamOutcome
{
    Histogram latency;
    uint64_t digest = 0;
    bool ok = false;
};

void
runStream(const std::string &socket_path, const std::string &tenant,
          uint64_t stream_id, const std::vector<uint8_t> &input,
          StreamOutcome *out)
{
    ServeClient client;
    std::string error;
    if (!client.connect(socket_path, &error) ||
        client.open(tenant, stream_id).status != ServeClient::Status::Ok)
        return;
    ReportList all;
    for (size_t off = 0; off < input.size(); off += kChunkBytes) {
        const size_t n = std::min(kChunkBytes, input.size() - off);
        serve::ReportGroup group;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r =
            client.feed(tenant, stream_id, {input.data() + off, n},
                        &group);
        const auto t1 = std::chrono::steady_clock::now();
        if (r.status != ServeClient::Status::Ok)
            return; // sheds fail the gate via the shed counter below
        out->latency.add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                                  t0)
                .count()));
        all.insert(all.end(), group.reports.begin(), group.reports.end());
    }
    serve::ReportGroup tail;
    if (client.closeStream(tenant, stream_id, &tail).status !=
        ServeClient::Status::Ok)
        return;
    all.insert(all.end(), tail.reports.begin(), tail.reports.end());
    out->digest = sortedDigest(std::move(all));
    out->ok = true;
}

struct RunResult
{
    double mbps = 0.0;
    double dfaShare = 0.0; ///< bytes on the DFA table / bytes fed
    Histogram latency;
    bool match = false;
};

/** Current value of the process-wide counter @p name (0 if unset). */
uint64_t
counterValue(const std::string &name)
{
    const telemetry::Snapshot snap = telemetry::snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/** One full server lifecycle at @p b streams, obs on or off. */
RunResult
runOnce(const std::shared_ptr<FlatAutomaton> &fa,
        const std::string &label, const std::string &socket_path,
        const std::vector<std::vector<uint8_t>> &inputs,
        const std::vector<uint64_t> &want, size_t b, bool obs)
{
    serve::MatchServiceConfig mcfg;
    mcfg.tenantMetrics = obs;
    serve::MatchService service(mcfg);
    service.addTenant(label, fa);
    serve::ServerConfig scfg;
    scfg.socketPath = socket_path;
    scfg.workers = 4;
    scfg.observability.enabled = obs;
    // Sample fast enough that the observer thread actually runs inside
    // the measurement window — the cost being measured includes it.
    scfg.observability.samplePeriodMillis = 200;
    serve::Server server(&service, scfg);
    std::string error;
    if (!server.start(&error))
        fatal("server start: ", error);

    const std::string dfa_cycles =
        telemetry::labeledName("serve.dfa_cycles", label);
    const uint64_t dfa_before = counterValue(dfa_cycles);
    std::vector<StreamOutcome> outcomes(b);
    std::vector<std::thread> threads;
    threads.reserve(b);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < b; ++i)
        threads.emplace_back(runStream, socket_path, label,
                             static_cast<uint64_t>(i + 1),
                             std::cref(inputs[i]), &outcomes[i]);
    for (std::thread &t : threads)
        t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    const auto adm = server.admission().stats();
    server.stop();

    RunResult result;
    uint64_t bytes = 0;
    result.match = adm.shed == 0;
    for (size_t i = 0; i < b; ++i) {
        result.latency.merge(outcomes[i].latency);
        bytes += inputs[i].size();
        if (!outcomes[i].ok || outcomes[i].digest != want[i])
            result.match = false;
    }
    result.mbps = bytes / wall / 1e6;
    result.dfaShare =
        bytes ? static_cast<double>(counterValue(dfa_cycles) - dfa_before) /
                    static_cast<double>(bytes)
              : 0.0;
    return result;
}

} // namespace

int
main()
{
    printSection("Serving-path throughput (socket end to end)");
    static ExperimentRunner runner;
    Table table({"App", "Streams", "KiB/stream", "MB/s off", "MB/s on",
                 "Obs %", "DFA %", "p50 us", "p95 us", "p99 us",
                 "Match"});

    const std::string socket_path =
        "/tmp/sparseap-serve-bench." + std::to_string(::getpid()) +
        ".sock";
    Rng rng(20180808);
    bool all_ok = true;

    for (const char *abbr : {"Bro217", "Brill", "EM", "LV"}) {
        Workload w = generateWorkload(abbr, 7, 5);
        auto fa = std::make_shared<FlatAutomaton>(w.app);
        if (fa->ensureHotDfa() == nullptr) {
            std::fprintf(stderr, "%s: no DFA at test scale, skipped\n",
                         abbr);
            continue;
        }
        const std::string label = std::string(abbr) + "@5%";

        const size_t max_b = *std::max_element(
            std::begin(kStreamCounts), std::end(kStreamCounts));
        std::vector<std::vector<uint8_t>> inputs;
        std::vector<uint64_t> want(max_b);
        inputs.reserve(max_b);
        for (size_t i = 0; i < max_b; ++i) {
            inputs.push_back(synthesizeInput(w.input, 64 * 1024, rng));
            Engine engine(*fa, EngineMode::Auto);
            want[i] = sortedDigest(engine.run(inputs[i]).reports);
        }

        for (size_t b : kStreamCounts) {
            const RunResult off = runOnce(fa, label, socket_path,
                                          inputs, want, b, false);
            const RunResult on = runOnce(fa, label, socket_path,
                                         inputs, want, b, true);
            const bool match = off.match && on.match;
            all_ok = all_ok && match;
            const double obs_pct =
                off.mbps > 0.0
                    ? 100.0 * (off.mbps - on.mbps) / off.mbps
                    : 0.0;
            table.addRow({label, std::to_string(b),
                          std::to_string(inputs[0].size() / 1024),
                          Table::fmt(off.mbps, 1),
                          Table::fmt(on.mbps, 1),
                          Table::fmt(obs_pct, 1),
                          Table::fmt(100.0 * on.dfaShare, 1),
                          Table::fmt(on.latency.p50(), 0),
                          Table::fmt(on.latency.p95(), 0),
                          Table::fmt(on.latency.p99(), 0),
                          match ? "ok" : "MISMATCH"});
        }
    }

    runner.printTable(table);
    if (!all_ok) {
        std::fprintf(stderr, "FAIL: socket reports diverged from "
                             "Engine::run (or sheds at low load)\n");
        return 1;
    }
    return 0;
}
