/**
 * @file
 * MatchService session-table tests: the service is a scheduling and
 * residency layer over EngineSession, so its contract is byte-level —
 * any open/feed/close interleaving across tenants and streams, under
 * any resident-session budget, must produce per-stream report multisets
 * identical to whole-input Engine::run over each stream's concatenated
 * bytes. (Multisets, not sequences: the service runs the safe all-bytes
 * stream alphabet, which may reorder reports within one position vs the
 * exact-alphabet whole-input run; digests sort first, like
 * bench/multi_stream.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "regex/glushkov.h"
#include "serve/match_service.h"
#include "sim/engine.h"
#include "store/format.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"

using namespace sparseap;
using namespace sparseap::serve;

namespace {

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

struct ServiceFixture
{
    std::vector<std::shared_ptr<FlatAutomaton>> automata;
    std::vector<std::string> names;
    std::vector<std::vector<uint8_t>> inputs; ///< one per tenant

    explicit ServiceFixture(std::initializer_list<const char *> abbrs,
                            size_t input_bytes = 32 * 1024)
    {
        Rng rng(123);
        for (const char *abbr : abbrs) {
            Workload w = generateWorkload(abbr, 7, 5);
            automata.push_back(std::make_shared<FlatAutomaton>(w.app));
            names.push_back(abbr);
            inputs.push_back(
                synthesizeInput(w.input, input_bytes, rng));
        }
    }

    void registerAll(MatchService *service) const
    {
        for (size_t i = 0; i < automata.size(); ++i)
            service->addTenant(names[i], automata[i]);
    }

    uint64_t wholeInputDigest(size_t tenant,
                              std::span<const uint8_t> input) const
    {
        Engine engine(*automata[tenant], EngineMode::Auto);
        return sortedDigest(engine.run(input).reports);
    }
};

} // namespace

TEST(MatchService, TenantRegistry)
{
    ServiceFixture fx({"Bro217", "Brill"});
    MatchService service;
    fx.registerAll(&service);
    EXPECT_TRUE(service.hasTenant("Bro217"));
    EXPECT_TRUE(service.hasTenant("Brill"));
    EXPECT_FALSE(service.hasTenant("nope"));
    const auto tenants = service.tenants();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_GT(tenants[0].states, 0u);
}

TEST(MatchService, OpenFeedCloseMatchesWholeInputRun)
{
    ServiceFixture fx({"Bro217", "Brill"});
    MatchService service;
    fx.registerAll(&service);

    for (size_t t = 0; t < fx.names.size(); ++t) {
        const auto &input = fx.inputs[t];
        ASSERT_EQ(service.open(fx.names[t], 1), OpStatus::Ok);
        ReportList all;
        const size_t chunk = 1000; // deliberately odd-sized
        for (size_t off = 0; off < input.size(); off += chunk) {
            const size_t n = std::min(chunk, input.size() - off);
            ReportGroup group;
            ASSERT_EQ(service.feed(fx.names[t], 1,
                                   {input.data() + off, n}, &group),
                      OpStatus::Ok);
            EXPECT_EQ(group.streamOffset, off + n);
            all.insert(all.end(), group.reports.begin(),
                       group.reports.end());
        }
        ReportGroup tail;
        ASSERT_EQ(service.close(fx.names[t], 1, &tail), OpStatus::Ok);
        EXPECT_EQ(tail.streamOffset, input.size());
        all.insert(all.end(), tail.reports.begin(), tail.reports.end());
        EXPECT_EQ(sortedDigest(std::move(all)),
                  fx.wholeInputDigest(t, input));
    }
    EXPECT_EQ(service.openStreamCount(), 0u);
}

TEST(MatchService, TableErrors)
{
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.maxStreamsPerTenant = 2;
    MatchService service(config);
    fx.registerAll(&service);

    ReportGroup group;
    EXPECT_EQ(service.open("nope", 1), OpStatus::UnknownTenant);
    EXPECT_EQ(service.feed("nope", 1, {}, &group),
              OpStatus::UnknownTenant);
    EXPECT_EQ(service.feed("Bro217", 9, {}, &group),
              OpStatus::UnknownStream);
    EXPECT_EQ(service.close("Bro217", 9, &group),
              OpStatus::UnknownStream);

    EXPECT_EQ(service.open("Bro217", 1), OpStatus::Ok);
    EXPECT_EQ(service.open("Bro217", 1), OpStatus::StreamExists);
    EXPECT_EQ(service.open("Bro217", 2), OpStatus::Ok);
    EXPECT_EQ(service.open("Bro217", 3), OpStatus::TooManyStreams);
}

TEST(MatchService, ParkingUnderTinyBudgetStaysByteIdentical)
{
    // 16 interleaved streams against a 2-resident budget: all but two
    // live as snapshots at any time, so every round trips through
    // suspend()/resume(). The report digests must not notice.
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.residentSessions = 2;
    config.sessionPoolSize = 2;
    MatchService service(config);
    fx.registerAll(&service);

    constexpr size_t kStreams = 16;
    const auto &input = fx.inputs[0];
    std::vector<ReportList> collected(kStreams);
    for (size_t s = 0; s < kStreams; ++s)
        ASSERT_EQ(service.open("Bro217", s), OpStatus::Ok);

    const size_t chunk = 777;
    for (size_t off = 0; off < input.size(); off += chunk) {
        const size_t n = std::min(chunk, input.size() - off);
        for (size_t s = 0; s < kStreams; ++s) {
            ReportGroup group;
            ASSERT_EQ(service.feed("Bro217", s,
                                   {input.data() + off, n}, &group),
                      OpStatus::Ok);
            collected[s].insert(collected[s].end(),
                                group.reports.begin(),
                                group.reports.end());
        }
        EXPECT_LE(service.stats().residentSessions,
                  config.residentSessions);
    }

    const uint64_t want = fx.wholeInputDigest(0, input);
    for (size_t s = 0; s < kStreams; ++s) {
        ReportGroup tail;
        ASSERT_EQ(service.close("Bro217", s, &tail), OpStatus::Ok);
        collected[s].insert(collected[s].end(), tail.reports.begin(),
                            tail.reports.end());
        EXPECT_EQ(sortedDigest(std::move(collected[s])), want)
            << "stream " << s;
    }

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.parks, 0u);
    EXPECT_GT(stats.resumes, 0u);
    EXPECT_EQ(stats.activeStreams, 0u);
    EXPECT_EQ(stats.parkedBytes, 0u);
    EXPECT_EQ(stats.residentSessions, 0u);
}

TEST(MatchService, ParkedBytesTrackSnapshotSizes)
{
    ServiceFixture fx({"Bro217"});
    MatchServiceConfig config;
    config.residentSessions = 1;
    MatchService service(config);
    fx.registerAll(&service);

    ASSERT_EQ(service.open("Bro217", 1), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 2), OpStatus::Ok);
    ReportGroup group;
    const auto &input = fx.inputs[0];
    ASSERT_EQ(service.feed("Bro217", 1, {input.data(), 4096}, &group),
              OpStatus::Ok);
    ASSERT_EQ(service.feed("Bro217", 2, {input.data(), 4096}, &group),
              OpStatus::Ok);
    // Stream 1 was parked to make room for stream 2's session.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.residentSessions, 1u);
    EXPECT_EQ(stats.parkedSessions, 1u);
    EXPECT_GT(stats.parkedBytes, 0u);
}

TEST(MatchService, FeedManyUsesFusedDfaPath)
{
    ServiceFixture fx({"Bro217"});
    ASSERT_NE(fx.automata[0]->ensureHotDfa(), nullptr)
        << "Bro217@5% must determinize for this test";
    MatchService service;
    SessionConfig session;
    session.mode = EngineMode::Dfa;
    service.addTenant("Bro217", fx.automata[0], session);

    constexpr size_t kStreams = 8;
    const auto &input = fx.inputs[0];
    for (size_t s = 0; s < kStreams; ++s)
        ASSERT_EQ(service.open("Bro217", s), OpStatus::Ok);

    std::vector<ReportList> collected(kStreams);
    const size_t chunk = 4096;
    for (size_t off = 0; off < input.size(); off += chunk) {
        const size_t n = std::min(chunk, input.size() - off);
        std::vector<FeedEntry> entries;
        for (size_t s = 0; s < kStreams; ++s)
            entries.push_back({s, {input.data() + off, n}});
        std::vector<ReportGroup> groups;
        ASSERT_EQ(service.feedMany("Bro217", entries, &groups),
                  OpStatus::Ok);
        ASSERT_EQ(groups.size(), kStreams);
        for (size_t s = 0; s < kStreams; ++s) {
            EXPECT_EQ(groups[s].streamId, s);
            collected[s].insert(collected[s].end(),
                                groups[s].reports.begin(),
                                groups[s].reports.end());
        }
    }

    Engine engine(*fx.automata[0], EngineMode::Dfa);
    const uint64_t want = sortedDigest(engine.run(input).reports);
    for (size_t s = 0; s < kStreams; ++s) {
        ReportGroup tail;
        ASSERT_EQ(service.close("Bro217", s, &tail), OpStatus::Ok);
        collected[s].insert(collected[s].end(), tail.reports.begin(),
                            tail.reports.end());
        EXPECT_EQ(sortedDigest(std::move(collected[s])), want)
            << "stream " << s;
    }
    EXPECT_GT(service.stats().fusedFeeds, 0u);
}

/**
 * An auto tenant whose automaton determinizes resolves to the DFA at
 * addTenant: it says so in TenantInfo, its very first feed runs on the
 * table, and a 2-stream feedMany takes the fused path.
 */
TEST(MatchService, AutoTenantResolvesDfaAtAddTenant)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    service.addTenant("auto-dfa", fx.automata[0]);
    ASSERT_NE(fx.automata[0]->hotDfaIfBuilt(), nullptr)
        << "addTenant must determinize an auto tenant up front";
    const auto tenants = service.tenants();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].core, EngineMode::Dfa);

    const std::string dfa_cycles =
        telemetry::labeledName("serve.dfa_cycles", "auto-dfa");
    auto dfaCycles = [&] {
        const telemetry::Snapshot snap = telemetry::snapshot();
        const auto it = snap.counters.find(dfa_cycles);
        return it == snap.counters.end() ? uint64_t{0} : it->second;
    };

    const auto &input = fx.inputs[0];
    ASSERT_EQ(service.open("auto-dfa", 1), OpStatus::Ok);
    ASSERT_EQ(service.open("auto-dfa", 2), OpStatus::Ok);
    const uint64_t before = dfaCycles();
    ReportGroup group;
    ASSERT_EQ(service.feed("auto-dfa", 1, {input.data(), 4096}, &group),
              OpStatus::Ok);
    EXPECT_EQ(dfaCycles() - before, 4096u);

    const std::vector<FeedEntry> entries = {
        {1, {input.data() + 4096, 4096}},
        {2, {input.data(), 8192}},
    };
    std::vector<ReportGroup> groups;
    ASSERT_EQ(service.feedMany("auto-dfa", entries, &groups),
              OpStatus::Ok);
    EXPECT_EQ(service.stats().fusedFeeds, 1u);
    EXPECT_EQ(dfaCycles() - before, 4096u + 4096u + 8192u);
}

/** A bailout leaves an auto tenant on the NFA cores, and says so. */
TEST(MatchService, AutoTenantReportsNfaAfterBailout)
{
    Application app("window", "W");
    app.addNfa(compileRegex("a.{12}", "w"));
    auto fa = std::make_shared<FlatAutomaton>(app);
    MatchService service;
    service.addTenant("auto-nfa", fa);
    SessionConfig pinned;
    pinned.mode = EngineMode::Sparse;
    service.addTenant("sparse", fa, pinned);
    const auto tenants = service.tenants();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].core, EngineMode::Auto);
    EXPECT_EQ(tenants[1].core, EngineMode::Sparse);
}

TEST(MatchService, FeedManyDuplicateStreamIdsFeedInOrder)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    ASSERT_EQ(service.open("Bro217", 1), OpStatus::Ok);

    const auto &input = fx.inputs[0];
    const size_t half = input.size() / 2;
    std::vector<FeedEntry> entries = {
        {1, {input.data(), half}},
        {1, {input.data() + half, input.size() - half}},
    };
    std::vector<ReportGroup> groups;
    ASSERT_EQ(service.feedMany("Bro217", entries, &groups),
              OpStatus::Ok);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[1].streamOffset, input.size());

    ReportList all;
    for (const ReportGroup &g : groups)
        all.insert(all.end(), g.reports.begin(), g.reports.end());
    ReportGroup tail;
    ASSERT_EQ(service.close("Bro217", 1, &tail), OpStatus::Ok);
    all.insert(all.end(), tail.reports.begin(), tail.reports.end());
    EXPECT_EQ(sortedDigest(std::move(all)),
              fx.wholeInputDigest(0, input));
}

TEST(MatchService, OneShotAndBatchMatchWholeInputRun)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    const auto &input = fx.inputs[0];
    const uint64_t want = fx.wholeInputDigest(0, input);

    ReportGroup group;
    ASSERT_EQ(service.matchOneShot("Bro217", input, &group),
              OpStatus::Ok);
    EXPECT_EQ(sortedDigest(group.reports), want);
    EXPECT_EQ(group.streamOffset, input.size());

    std::vector<std::span<const uint8_t>> inputs(5,
                                                 std::span(input));
    std::vector<ReportGroup> groups;
    ASSERT_EQ(service.matchBatch("Bro217", inputs, &groups),
              OpStatus::Ok);
    ASSERT_EQ(groups.size(), 5u);
    for (const ReportGroup &g : groups)
        EXPECT_EQ(sortedDigest(g.reports), want);
}

TEST(MatchService, ReleaseOwnerSweepsOnlyThatOwner)
{
    ServiceFixture fx({"Bro217"});
    MatchService service;
    fx.registerAll(&service);
    ASSERT_EQ(service.open("Bro217", 1, /*owner=*/100), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 2, /*owner=*/100), OpStatus::Ok);
    ASSERT_EQ(service.open("Bro217", 3, /*owner=*/200), OpStatus::Ok);

    EXPECT_EQ(service.releaseOwner(100), 2u);
    EXPECT_EQ(service.openStreamCount(), 1u);
    ReportGroup group;
    EXPECT_EQ(service.feed("Bro217", 1, {}, &group),
              OpStatus::UnknownStream);
    EXPECT_EQ(service.feed("Bro217", 3, fx.inputs[0], &group),
              OpStatus::Ok);
    EXPECT_EQ(service.releaseOwner(200), 1u);
    EXPECT_EQ(service.openStreamCount(), 0u);
}

TEST(MatchService, ConcurrentStreamsStayIsolated)
{
    // 8 threads, each its own stream, feeding concurrently under a
    // budget that forces parking races; every stream's digest must
    // still match the whole-input run (TSan leg doubles as the data
    // race check here).
    ServiceFixture fx({"Bro217", "Brill"});
    MatchServiceConfig config;
    config.residentSessions = 3;
    MatchService service(config);
    fx.registerAll(&service);

    constexpr size_t kThreads = 8;
    std::vector<uint64_t> digests(kThreads);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kThreads; ++s) {
        threads.emplace_back([&, s] {
            const size_t tenant = s % fx.names.size();
            const auto &input = fx.inputs[tenant];
            ASSERT_EQ(service.open(fx.names[tenant], s), OpStatus::Ok);
            ReportList all;
            const size_t chunk = 1024 + 128 * s; // distinct grids
            for (size_t off = 0; off < input.size(); off += chunk) {
                const size_t n = std::min(chunk, input.size() - off);
                ReportGroup group;
                ASSERT_EQ(service.feed(fx.names[tenant], s,
                                       {input.data() + off, n},
                                       &group),
                          OpStatus::Ok);
                all.insert(all.end(), group.reports.begin(),
                           group.reports.end());
            }
            ReportGroup tail;
            ASSERT_EQ(service.close(fx.names[tenant], s, &tail),
                      OpStatus::Ok);
            all.insert(all.end(), tail.reports.begin(),
                       tail.reports.end());
            digests[s] = sortedDigest(std::move(all));
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (size_t s = 0; s < kThreads; ++s) {
        const size_t tenant = s % fx.names.size();
        EXPECT_EQ(digests[s],
                  fx.wholeInputDigest(tenant, fx.inputs[tenant]))
            << "stream " << s;
    }
    EXPECT_EQ(service.openStreamCount(), 0u);
    EXPECT_EQ(service.stats().parkedBytes, 0u);
}
