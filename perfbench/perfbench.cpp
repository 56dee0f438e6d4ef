/**
 * @file
 * perfbench: the repository benchmark (see perfbench/README.md).
 *
 * One invocation measures one workload against the serving stack as
 * apserved deploys it: a serve::Server with ServerConfig and
 * MatchServiceConfig defaults (4 workers, observability on) on a Unix
 * socket, loaded from the same process over two ServeClient connections,
 * each on its own thread. The loop is closed: a connection sends its
 * next request when the previous reply has arrived.
 *
 * The rule sets are fixed (catalog seed kRuleSeed); --seed draws only
 * the traffic. Each connection owns a synthesized corpus and a request
 * schedule over it (streams, chunk sizes, opens and closes), so the
 * request sequence is a pure function of the seed; --seconds decides
 * how much of it runs. Every logical stream's socket reports (feeds plus
 * close) must digest-equal Engine::run over that stream's bytes,
 * computed before the timed phase.
 *
 * --trace 1 adds the per-layer numbers. The socket run is followed by
 * replays of its exact request sequence through three public entry
 * points, each call wrapped in a span: EngineSession (kernel + session),
 * an in-process MatchService (+ service) and ServeClient over a fresh
 * socket (+ wire). Layer self time is the difference between adjacent
 * replays. The spans are written as a Chrome trace at exit.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics of the selected mode.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/vec.h"
#include "serve/client.h"
#include "serve/match_service.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "sim/flat_automaton.h"
#include "sim/session.h"
#include "store/artifact.h"
#include "store/blob.h"
#include "workloads/registry.h"

using namespace sparseap;
using serve::ServeClient;
using Clock = std::chrono::steady_clock;

namespace {

/** Catalog seed of every rule set; the traffic seed is --seed. */
constexpr uint64_t kRuleSeed = 7;
constexpr size_t kConnections = 2;
/** Throughput is the median over this many equal slices of the run. */
constexpr size_t kWindows = 10;
/** Set-up passes per run: at least kMinSetups, more while the passes
 *  so far took under kSetupBudgetS (cheap set-ups need many samples
 *  for a steady median). */
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 1000;
constexpr double kSetupBudgetS = 1.0;
/** The traced replays interleave their layers in this many blocks. */
constexpr size_t kReplayBlocks = 64;

// ------------------------------------------------------------ workloads --

struct TenantSpec
{
    const char *abbr;
    unsigned scalePercent;
};

/** One traffic mix (the README says why each exists). */
struct WorkloadSpec
{
    const char *name;
    std::vector<TenantSpec> tenants;
    /** Tenant index fed by each connection. */
    size_t connTenant[kConnections];
    /** Bytes per stream per FEED request. */
    size_t chunkBytes;
    /** Logical streams each connection keeps open. */
    size_t streamsPerConn;
    /** Streams carried by one FEED frame (feedMany when > 1). */
    size_t entriesPerRequest;
    /** Stream length before close + reopen; 0 = the whole corpus. */
    size_t streamBytes;
    /** Corpus bytes per connection (full and --tiny). */
    size_t corpusBytes;
    size_t tinyCorpusBytes;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        // dfa_rules streams are 1 MiB, each over its own corpus slice:
        // Brill's per-byte cost climbs as a stream latches states, at a
        // position that depends on the input, so one long stream per
        // seed would make the run's latency a draw of where that was.
        {"dfa_rules", {{"Brill", 5}}, {0, 0}, 16 << 10, 1, 1, 1 << 20,
         16 << 20, 2 << 20},
        {"nfa_rules", {{"Snort", 100}, {"PEN", 25}}, {0, 1}, 4 << 10, 1,
         1, 0, 4 << 20, 128 << 10},
        {"stream_churn", {{"Bro217", 5}}, {0, 0}, 1 << 10, 256, 16,
         64 << 10, 8 << 20, 1 << 20},
    };
    return specs;
}

std::string
tenantLabel(const TenantSpec &t)
{
    return std::string(t.abbr) + "@" + std::to_string(t.scalePercent) +
           "%";
}

// -------------------------------------------------------------- digests --

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Order-free digest of a report stream: count plus a sum of hashes. */
struct Digest
{
    uint64_t count = 0;
    uint64_t hash = 0;

    void
    add(const Report &r)
    {
        ++count;
        hash += mix64(mix64(r.position) ^ r.state);
    }

    bool operator==(const Digest &) const = default;
};

/**
 * Engine::run over one stream's full bytes. A report at position p
 * depends only on bytes [0, p], so the digest of any prefix of B bytes
 * is the digest of the reports with position < B.
 */
struct Reference
{
    std::vector<uint64_t> positions;
    std::vector<uint64_t> prefixHash{0};

    explicit Reference(const SimResult &run)
    {
        positions.reserve(run.reports.size());
        prefixHash.reserve(run.reports.size() + 1);
        Digest d;
        for (const Report &r : run.reports) {
            positions.push_back(r.position);
            d.add(r);
            prefixHash.push_back(d.hash);
        }
    }

    Digest
    prefix(uint64_t bytes) const
    {
        const size_t n = static_cast<size_t>(
            std::lower_bound(positions.begin(), positions.end(), bytes) -
            positions.begin());
        return Digest{n, prefixHash[n]};
    }
};

// ------------------------------------------------------------- schedule --

enum class OpKind : uint8_t { Open, Feed, Close };

/** One stream's slice of a request. */
struct Entry
{
    uint32_t stream; ///< index into the schedule's stream table
    uint32_t bytes;
    uint64_t offset; ///< corpus offset of the chunk
};

/** One request: Open and Close carry one entry of 0 bytes. */
struct Request
{
    OpKind kind = OpKind::Open;
    std::vector<Entry> entries;
};

struct StreamRec
{
    uint64_t id = 0;
    uint64_t base = 0;   ///< corpus offset of the stream's first byte
    uint64_t length = 0; ///< bytes fed before close
    uint64_t planned = 0;
};

/**
 * One connection's request sequence, generated on the fly: slot s of
 * streamsPerConn holds one open logical stream; requests walk the slots
 * in groups of entriesPerRequest, closing a stream that reached its
 * length and opening its successor before the group's FEED. Ids are
 * unique across connections (connection in the high word).
 *
 * The sequence is a pure function of the spec, so a run stores only how
 * many requests it sent before drain(); the gate and the traced
 * replays regenerate it (see replayRequest()). Per request the run
 * keeps one bit and at most one latency sample, which keeps
 * peak_rss_mb about the program, not the benchmark.
 */
class Schedule
{
  public:
    Schedule(const WorkloadSpec &spec, size_t corpus_bytes, size_t conn)
        : spec_(spec), corpus_(corpus_bytes), conn_(conn),
          slot_stream_(spec.streamsPerConn, -1),
          slot_used_(spec.streamsPerConn, false)
    {
    }

    /** Bytes of one reference slice (a stream never crosses one). */
    size_t
    sliceBytes() const
    {
        return spec_.streamBytes ? spec_.streamBytes : corpus_;
    }

    /** The next request; valid until the next call. */
    const Request &
    next()
    {
        if (pending_.empty())
            planGroup();
        current_ = std::move(pending_.front());
        pending_.pop_front();
        ++handed_;
        return current_;
    }

    /** Requests handed out by next() so far. */
    size_t handed() const { return handed_; }

    /**
     * End the run: the rest of the current group still goes out, then a
     * Close for every open stream; done() turns true after the last.
     */
    void
    drain()
    {
        draining_ = true;
        for (int64_t &s : slot_stream_)
            if (s >= 0) {
                push(OpKind::Close, static_cast<uint32_t>(s));
                s = -1;
            }
    }

    bool done() const { return draining_ && pending_.empty(); }

    const StreamRec &stream(uint32_t s) const { return streams_[s]; }
    size_t streamCount() const { return streams_.size(); }

  private:
    void
    push(OpKind kind, uint32_t stream)
    {
        pending_.push_back({kind, {{stream, 0, 0}}});
    }

    void
    planGroup()
    {
        const size_t per = spec_.entriesPerRequest;
        const size_t first_slot = group_ * per;
        for (size_t s = first_slot; s < first_slot + per; ++s) {
            int64_t &cur = slot_stream_[s];
            if (cur >= 0 && streams_[cur].planned == streams_[cur].length) {
                push(OpKind::Close, static_cast<uint32_t>(cur));
                cur = -1;
            }
            if (cur < 0) {
                cur = static_cast<int64_t>(openStream(s));
                push(OpKind::Open, static_cast<uint32_t>(cur));
            }
        }
        Request feed{OpKind::Feed, {}};
        for (size_t s = first_slot; s < first_slot + per; ++s) {
            StreamRec &st = streams_[slot_stream_[s]];
            const uint64_t n =
                std::min<uint64_t>(spec_.chunkBytes, st.length - st.planned);
            feed.entries.push_back({static_cast<uint32_t>(slot_stream_[s]),
                                    static_cast<uint32_t>(n),
                                    st.base + st.planned});
            st.planned += n;
        }
        pending_.push_back(std::move(feed));
        group_ = (group_ + 1) % (spec_.streamsPerConn / per);
    }

    size_t
    openStream(size_t slot)
    {
        const size_t serial = streams_.size();
        const size_t slice = sliceBytes();
        StreamRec st;
        st.id = (static_cast<uint64_t>(conn_ + 1) << 32) | serial;
        st.base = (serial % (corpus_ / slice)) * slice;
        st.length = slice;
        // Stagger the first generation of a many-stream connection so
        // closes and opens spread over the run instead of arriving in
        // one burst; 41 is odd, so the lengths cycle through every
        // chunk multiple.
        if (spec_.streamsPerConn > 1 && !slot_used_[slot]) {
            const size_t chunks = slice / spec_.chunkBytes;
            st.length = spec_.chunkBytes * (1 + (slot * 41) % chunks);
        }
        slot_used_[slot] = true;
        streams_.push_back(st);
        return serial;
    }

    const WorkloadSpec &spec_;
    size_t corpus_;
    size_t conn_;
    std::vector<StreamRec> streams_;
    std::vector<int64_t> slot_stream_;
    std::vector<bool> slot_used_;
    std::deque<Request> pending_;
    Request current_;
    size_t group_ = 0;
    size_t handed_ = 0;
    bool draining_ = false;
};

// ---------------------------------------------------------------- spans --

int64_t
nanosSince(Clock::time_point epoch, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
}

/** One timed call (Chrome-trace "X" event). */
struct Span
{
    const char *name;
    int64_t begin; ///< ns since the trace epoch
    int64_t end;
    int32_t parent; ///< index in the same log, -1 = root
    uint64_t request;
};

/** Single-thread span recorder; merged into one trace at exit. */
class SpanLog
{
  public:
    SpanLog(Clock::time_point epoch, uint32_t tid)
        : epoch_(epoch), tid_(tid)
    {
    }

    int32_t
    open(const char *name, uint64_t request, int32_t parent = -1)
    {
        spans_.push_back({name, now(), 0, parent, request});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void close(int32_t span) { spans_[span].end = now(); }

    /** Total ns of spans named @p name, and their count. */
    std::pair<double, uint64_t>
    total(const char *name) const
    {
        double ns = 0.0;
        uint64_t n = 0;
        for (const Span &s : spans_)
            if (std::strcmp(s.name, name) == 0) {
                ns += static_cast<double>(s.end - s.begin);
                ++n;
            }
        return {ns, n};
    }

    const std::vector<Span> &spans() const { return spans_; }
    uint32_t tid() const { return tid_; }

  private:
    int64_t now() const { return nanosSince(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    uint32_t tid_;
    std::vector<Span> spans_;
};

void
writeChromeTrace(const std::string &path,
                 const std::vector<std::unique_ptr<SpanLog>> &logs)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[256];
    for (const auto &log : logs)
        for (size_t i = 0; i < log->spans().size(); ++i) {
            const Span &s = log->spans()[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                          "\"request\":%llu,\"id\":%zu,\"parent\":%d}}",
                          first ? "" : ",", s.name, log->tid(),
                          s.begin / 1e3, (s.end - s.begin) / 1e3,
                          static_cast<unsigned long long>(s.request), i,
                          s.parent);
            out << buf;
            first = false;
        }
    out << "\n]}\n";
}

// --------------------------------------------------------------- set-up --

struct Tenant
{
    std::string label;
    Workload workload;
    std::shared_ptr<FlatAutomaton> fa;
};

/** One pass of the public set-up path, timed step by step (ms). */
struct SetupRun
{
    std::vector<Tenant> tenants;
    std::unique_ptr<serve::MatchService> service;
    std::unique_ptr<serve::Server> server;
    double generateMs = 0, flattenMs = 0, determinizeMs = 0, startMs = 0;
    double totalS = 0;
    size_t dfaTenants = 0;
};

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Rule generation until the socket accepts (corpus synthesis and
 *  reference runs are not part of it). */
std::unique_ptr<SetupRun>
setUp(const WorkloadSpec &spec, const std::string &socket_path)
{
    auto run = std::make_unique<SetupRun>();
    const auto t0 = Clock::now();
    for (const TenantSpec &ts : spec.tenants) {
        Tenant t;
        t.label = tenantLabel(ts);
        auto step = Clock::now();
        t.workload = generateWorkload(ts.abbr, kRuleSeed, ts.scalePercent);
        run->generateMs += msSince(step);
        step = Clock::now();
        t.fa = std::make_shared<FlatAutomaton>(t.workload.app);
        run->flattenMs += msSince(step);
        step = Clock::now();
        if (t.fa->ensureHotDfa() != nullptr)
            ++run->dfaTenants;
        run->determinizeMs += msSince(step);
        run->tenants.push_back(std::move(t));
    }
    const auto step = Clock::now();
    run->service = std::make_unique<serve::MatchService>();
    for (const Tenant &t : run->tenants)
        run->service->addTenant(t.label, t.fa);
    serve::ServerConfig cfg;
    cfg.socketPath = socket_path;
    run->server = std::make_unique<serve::Server>(run->service.get(), cfg);
    std::string error;
    if (!run->server->start(&error))
        fatal("server start: ", error);
    run->startMs = msSince(step);
    run->totalS =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return run;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Exact nearest-rank percentile of sorted samples. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

void
runThreads(size_t n, const std::function<void(size_t)> &body)
{
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i)
        threads.emplace_back(body, i);
    for (std::thread &t : threads)
        t.join();
}

// ----------------------------------------------------------- connection --

/** Everything one connection owns: tenant, corpus, references, results. */
struct Connection
{
    const WorkloadSpec *spec = nullptr;
    size_t index = 0;
    const Tenant *tenant = nullptr;
    std::vector<uint8_t> corpus;
    std::vector<Reference> references; ///< one per corpus slice

    // Socket-run results; requests and streams in schedule order.
    size_t timedEnd = 0; ///< requests sent before the deadline
    size_t requests = 0; ///< requests sent, final closes included
    std::vector<bool> requestOk; ///< answered Ok with a well-formed reply
    std::vector<Digest> got;
    std::vector<uint64_t> offset; ///< last streamOffset the server sent
    std::vector<bool> streamOk;   ///< closed Ok and passed the gate
    std::vector<double> latencyUs; ///< FEED round trips, timed phase
    double windowBytes[kWindows] = {};
    uint64_t fedBytes = 0; ///< every request's bytes, warm-up included

    std::unique_ptr<Schedule>
    newSchedule() const
    {
        return std::make_unique<Schedule>(*spec, corpus.size(), index);
    }

    std::span<const uint8_t>
    chunk(const Entry &e) const
    {
        return {corpus.data() + e.offset, e.bytes};
    }

    const std::string &label() const { return tenant->label; }
};

/** The next request of @p cx's socket run, regenerated by @p sch. */
const Request &
replayRequest(const Connection &cx, Schedule &sch)
{
    if (sch.handed() == cx.timedEnd)
        sch.drain();
    return sch.next();
}

/** Send one request; reports land in @p groups. */
ServeClient::Status
issue(ServeClient &client, const Connection &cx, const Schedule &sch,
      const Request &r, std::vector<serve::ReportGroup> *groups)
{
    const uint64_t id = sch.stream(r.entries[0].stream).id;
    groups->clear();
    if (r.kind == OpKind::Open)
        return client.open(cx.label(), id).status;
    groups->resize(1);
    if (r.kind == OpKind::Close)
        return client.closeStream(cx.label(), id, &(*groups)[0]).status;
    if (r.entries.size() == 1)
        return client.feed(cx.label(), id, cx.chunk(r.entries[0]),
                           &(*groups)[0])
            .status;
    std::vector<serve::FeedEntry> fe;
    for (const Entry &e : r.entries)
        fe.push_back({sch.stream(e.stream).id, cx.chunk(e)});
    return client.feedMany(cx.label(), fe, groups).status;
}

/** Fold a reply into the per-stream digests; @return reply well-formed. */
bool
absorb(Connection &cx, const Schedule &sch, const Request &r,
       const std::vector<serve::ReportGroup> &groups)
{
    if (r.kind == OpKind::Open)
        return true;
    if (groups.size() != r.entries.size())
        return false;
    bool ok = true;
    for (size_t i = 0; i < groups.size(); ++i) {
        const Entry &e = r.entries[i];
        const serve::ReportGroup &g = groups[i];
        const uint64_t want_offset = cx.offset[e.stream] + e.bytes;
        if (g.streamId != sch.stream(e.stream).id ||
            g.streamOffset != want_offset) {
            ok = false;
            continue;
        }
        cx.offset[e.stream] = want_offset;
        for (const Report &rep : g.reports)
            cx.got[e.stream].add(rep);
    }
    return ok;
}

struct SocketRun
{
    Clock::time_point timedBegin; ///< end of the warm-up
    double wallS = 0; ///< warm-up start to the last reply, drain included
};

/**
 * Closed-loop load: each connection warms up, sends requests until the
 * deadline, then closes its open streams (not timed). Each close is
 * gated: digest(reports) == Engine::run over the stream's bytes.
 */
SocketRun
runSocket(std::vector<Connection> &conns, const std::string &socket_path,
          double warmup_s, double seconds, bool corrupt_digest,
          std::atomic<bool> *transport_failed)
{
    SocketRun run;
    const auto begin = Clock::now();
    auto after = [](Clock::time_point t, double s) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
    };
    run.timedBegin = after(begin, warmup_s);
    const auto deadline = after(run.timedBegin, seconds);
    const double window_s = seconds / kWindows;
    runThreads(conns.size(), [&](size_t c) {
        Connection &cx = conns[c];
        auto sch = cx.newSchedule();
        ServeClient client;
        std::string error;
        if (!client.connect(socket_path, &error)) {
            transport_failed->store(true);
            return;
        }
        std::vector<serve::ReportGroup> groups;
        auto step = [&](const Request &r, bool timed) {
            const size_t streams = sch->streamCount();
            cx.got.resize(streams);
            cx.offset.resize(streams, 0);
            cx.streamOk.resize(streams, false);
            const auto t0 = Clock::now();
            const ServeClient::Status st =
                issue(client, cx, *sch, r, &groups);
            const auto t1 = Clock::now();
            const bool ok = st == ServeClient::Status::Ok &&
                            absorb(cx, *sch, r, groups);
            cx.requestOk.push_back(ok);
            const uint32_t s0 = r.entries[0].stream;
            if (r.kind == OpKind::Close && ok) {
                const StreamRec &rec = sch->stream(s0);
                Digest want = cx.references[rec.base / sch->sliceBytes()]
                                  .prefix(rec.planned);
                if (corrupt_digest && c == 0 && s0 == 0)
                    want.hash ^= 1;
                cx.streamOk[s0] =
                    cx.got[s0] == want && cx.offset[s0] == rec.planned;
            }
            if (r.kind == OpKind::Feed) {
                uint64_t bytes = 0;
                for (const Entry &e : r.entries)
                    bytes += e.bytes;
                cx.fedBytes += bytes;
                const double at =
                    std::chrono::duration<double>(t1 - run.timedBegin)
                        .count();
                if (timed && ok && t0 >= run.timedBegin)
                    cx.latencyUs.push_back(
                        std::chrono::duration<double, std::micro>(t1 - t0)
                            .count());
                if (timed && ok && at >= 0.0 && at < seconds)
                    cx.windowBytes[std::min(static_cast<size_t>(at / window_s),
                                            kWindows - 1)] +=
                        static_cast<double>(bytes);
            }
            if (st == ServeClient::Status::Transport)
                transport_failed->store(true);
            return !transport_failed->load();
        };
        while (Clock::now() < deadline)
            if (!step(sch->next(), true))
                break;
        cx.timedEnd = sch->handed();
        sch->drain();
        while (!transport_failed->load() && !sch->done())
            step(sch->next(), false);
        cx.requests = sch->handed();
    });
    run.wallS = std::chrono::duration<double>(Clock::now() - begin).count();
    return run;
}

// -------------------------------------------------------------- replays --

/** Kernel + session accounting of the EngineSession replay. */
struct KernelTally
{
    uint64_t feeds = 0, bytes = 0, reports = 0, skipped = 0;
    uint64_t snapshotBytes = 0;
    uint64_t modeBytes[4] = {0, 0, 0, 0}; ///< by EngineMode
};

size_t
modeIndex(EngineMode m)
{
    switch (m) {
    case EngineMode::Sparse:
        return 0;
    case EngineMode::Dense:
        return 1;
    case EngineMode::Dfa:
        return 2;
    default:
        return 3;
    }
}

/** Span request id: the same for one request in every layer. */
uint64_t
requestId(size_t conn, size_t op)
{
    return (static_cast<uint64_t>(conn + 1) << 40) | op;
}

/**
 * Replays one connection through EngineSession. The service's residency
 * policy (LRU over residentSessions, split evenly between the
 * connections) is mirrored with suspend/resume, so the kernel.feed
 * spans see the same warm/cold mix. Each close first round-trips the
 * stream through suspend/resume, so those spans exist on every
 * workload. The wire codec runs on each request's frames.
 */
class KernelReplay
{
  public:
    KernelReplay(const Connection &cx, SpanLog *log)
        : cx_(cx), log_(log), sch_(cx.newSchedule())
    {
    }

    void
    step()
    {
        const Request &r = replayRequest(cx_, *sch_);
        streams_.resize(sch_->streamCount());
        request_ = requestId(cx_.index, sch_->handed() - 1);
        root_ = log_->open("kernel.request", request_);
        serve::FeedRequest req;
        req.tenant = cx_.label();
        std::vector<serve::ReportGroup> groups;
        for (const Entry &e : r.entries) {
            Live &l = streams_[e.stream];
            if (r.kind == OpKind::Open)
                continue;
            if (r.kind == OpKind::Close) {
                if (l.session) {
                    resume(*l.session, suspend(*l.session));
                    pool_.push_back(std::move(l.session));
                    std::erase(resident_, e.stream);
                }
                l = Live{};
                continue;
            }
            if (!l.session)
                checkout(e.stream);
            const auto chunk = cx_.chunk(e);
            const uint64_t skipped0 = l.session->stats().skippedSymbols;
            const int32_t sp = log_->open("kernel.feed", request_, root_);
            l.session->feed(chunk);
            log_->close(sp);
            serve::ReportGroup g;
            g.streamId = sch_->stream(e.stream).id;
            g.streamOffset = l.session->offset();
            g.reports = l.session->takeReports();
            tally.bytes += chunk.size();
            tally.reports += g.reports.size();
            tally.skipped += l.session->stats().skippedSymbols - skipped0;
            tally.modeBytes[modeIndex(l.session->resolvedMode())] +=
                chunk.size();
            l.lastUse = ++clock_;
            req.entries.push_back({g.streamId, chunk});
            groups.push_back(std::move(g));
        }
        if (r.kind == OpKind::Feed) {
            ++tally.feeds;
            codec(req, groups);
            parkBeyondBudget();
        }
        log_->close(root_);
    }

    KernelTally tally;

  private:
    struct Live
    {
        std::unique_ptr<EngineSession> session;
        EngineSession::Snapshot parked;
        bool hasParked = false;
        uint64_t lastUse = 0;
    };

    EngineSession::Snapshot
    suspend(const EngineSession &session)
    {
        const int32_t sp = log_->open("session.suspend", request_, root_);
        EngineSession::Snapshot snap = session.suspend();
        log_->close(sp);
        tally.snapshotBytes += snap.byteSize();
        return snap;
    }

    void
    resume(EngineSession &session, const EngineSession::Snapshot &snap)
    {
        const int32_t sp = log_->open("session.resume", request_, root_);
        session.resume(snap);
        log_->close(sp);
    }

    /** Make a stream live: pooled session, resumed or restarted. */
    void
    checkout(uint32_t stream)
    {
        Live &l = streams_[stream];
        if (pool_.empty()) {
            l.session = std::make_unique<EngineSession>(*cx_.tenant->fa,
                                                        SessionConfig{});
        } else {
            l.session = std::move(pool_.back());
            pool_.pop_back();
        }
        if (l.hasParked) {
            resume(*l.session, l.parked);
            l.hasParked = false;
        } else {
            l.session->restart();
        }
        resident_.push_back(stream);
    }

    /** Park least-recently-fed streams, as the service does at checkin. */
    void
    parkBeyondBudget()
    {
        const size_t budget =
            serve::MatchServiceConfig{}.residentSessions / kConnections;
        while (resident_.size() > budget) {
            auto lru = std::min_element(
                resident_.begin(), resident_.end(),
                [&](uint32_t a, uint32_t b) {
                    return streams_[a].lastUse < streams_[b].lastUse;
                });
            Live &victim = streams_[*lru];
            resident_.erase(lru);
            victim.parked = suspend(*victim.session);
            victim.hasParked = true;
            pool_.push_back(std::move(victim.session));
        }
    }

    /** The frames the wire carries for this request, both ways. */
    void
    codec(const serve::FeedRequest &req,
          const std::vector<serve::ReportGroup> &groups)
    {
        const int32_t sp = log_->open("wire.codec", request_, root_);
        payload_.clear();
        serve::WireWriter w(&payload_);
        serve::encodeFeedRequest(&w, req);
        serve::FeedRequest req_back;
        serve::WireReader r(payload_);
        const bool req_ok = serve::decodeFeedRequest(&r, &req_back);
        payload_.clear();
        serve::encodeReportGroups(&w, groups);
        std::vector<serve::ReportGroup> groups_back;
        serve::WireReader r2(payload_);
        const bool rep_ok = serve::decodeReportGroups(&r2, &groups_back);
        log_->close(sp);
        if (!req_ok || !rep_ok)
            fatal("perfbench: codec round trip failed");
    }

    const Connection &cx_;
    SpanLog *log_;
    std::unique_ptr<Schedule> sch_;
    std::vector<Live> streams_;
    std::vector<uint32_t> resident_;
    std::vector<std::unique_ptr<EngineSession>> pool_;
    std::vector<uint8_t> payload_;
    uint64_t clock_ = 0;
    uint64_t request_ = 0;
    int32_t root_ = -1;
};

/** Replays one connection through an in-process MatchService. */
class ServiceReplay
{
  public:
    ServiceReplay(const Connection &cx, serve::MatchService *service,
                  SpanLog *log)
        : cx_(cx), service_(service), log_(log), sch_(cx.newSchedule())
    {
    }

    void
    step()
    {
        const Request &r = replayRequest(cx_, *sch_);
        const Entry &e0 = r.entries[0];
        const uint64_t id = sch_->stream(e0.stream).id;
        groups_.assign(1, {});
        const int32_t sp = log_->open(
            "service.request", requestId(cx_.index, sch_->handed() - 1));
        serve::OpStatus st = serve::OpStatus::Ok;
        if (r.kind == OpKind::Open) {
            st = service_->open(cx_.label(), id, cx_.index + 1);
        } else if (r.kind == OpKind::Close) {
            st = service_->close(cx_.label(), id, &groups_[0]);
        } else if (r.entries.size() == 1) {
            st = service_->feed(cx_.label(), id, cx_.chunk(e0),
                                &groups_[0]);
        } else {
            fe_.clear();
            for (const Entry &e : r.entries)
                fe_.push_back({sch_->stream(e.stream).id, cx_.chunk(e)});
            st = service_->feedMany(cx_.label(), fe_, &groups_);
        }
        log_->close(sp);
        if (st != serve::OpStatus::Ok)
            fatal("perfbench: service replay: ", serve::opStatusName(st));
        if (r.kind != OpKind::Open)
            for (const serve::ReportGroup &g : groups_)
                reports += g.reports.size();
        parkedPeak = std::max(parkedPeak, service_->stats().parkedBytes);
    }

    uint64_t reports = 0;
    uint64_t parkedPeak = 0;

  private:
    const Connection &cx_;
    serve::MatchService *service_;
    SpanLog *log_;
    std::unique_ptr<Schedule> sch_;
    std::vector<serve::ReportGroup> groups_;
    std::vector<serve::FeedEntry> fe_;
};

/** Replays one connection over its own socket connection. */
class SocketReplay
{
  public:
    SocketReplay(const Connection &cx, const std::string &socket_path,
                 SpanLog *log)
        : cx_(cx), log_(log), sch_(cx.newSchedule())
    {
        std::string error;
        if (!client_.connect(socket_path, &error))
            fatal("perfbench: socket replay: ", error);
    }

    void
    step()
    {
        const Request &r = replayRequest(cx_, *sch_);
        const int32_t sp = log_->open(
            "socket.request", requestId(cx_.index, sch_->handed() - 1));
        const ServeClient::Status st =
            issue(client_, cx_, *sch_, r, &groups_);
        log_->close(sp);
        if (st != ServeClient::Status::Ok)
            fatal("perfbench: socket replay request failed");
        for (const serve::ReportGroup &g : groups_)
            reports += g.reports.size();
    }

    uint64_t reports = 0;

  private:
    const Connection &cx_;
    SpanLog *log_;
    std::unique_ptr<Schedule> sch_;
    ServeClient client_;
    std::vector<serve::ReportGroup> groups_;
};

// --------------------------------------------------------------- output --

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s)
        if (ch == '"' || ch == '\\')
            out += std::string("\\") + ch;
        else if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** User + system CPU seconds of the whole process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Host-wide {steal, total} jiffies from /proc/stat ({0, 0} if absent). */
std::pair<uint64_t, uint64_t>
hostCpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v = 0, total = 0, steal = 0;
    in >> cpu;
    for (int i = 0; i < 8 && (in >> v); ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool corruptDigest = false;
    std::string workDir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{dfa_rules|nfa_rules|stream_churn} --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-digest] [--work-dir D] "
                 "[--commit ID]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--tiny")
                a.tiny = true;
            else if (k == "--corrupt-digest")
                a.corruptDigest = true;
            else if (k == "--work-dir")
                a.workDir = value();
            else if (k == "--commit")
                a.commit = value();
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloadSpecs())
        if (args.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());

    const Clock::time_point epoch = Clock::now();
    const std::string sock_base = args.workDir + "/perfbench-" +
                                  std::to_string(::getpid());
    const std::string socket_path = sock_base + ".sock";
    const size_t corpus_bytes =
        args.tiny ? spec->tinyCorpusBytes : spec->corpusBytes;

    // Set-up, repeated (at least kMinSetups times and for about
    // kSetupBudgetS); the median is setup_s and the last pass serves.
    std::unique_ptr<SetupRun> live;
    std::vector<double> setup_s, gen_ms, flat_ms, det_ms, start_ms;
    const auto setup_begin = Clock::now();
    while (setup_s.size() < (args.tiny ? 1 : kMinSetups) ||
           (!args.tiny && setup_s.size() < kMaxSetups &&
            Clock::now() - setup_begin < std::chrono::duration<double>(
                                             kSetupBudgetS))) {
        // Passes after the first would log the same lines again.
        std::string repeated_log;
        std::optional<ScopedLogCapture> quiet;
        if (!setup_s.empty())
            quiet.emplace(&repeated_log);
        live.reset();
        live = setUp(*spec, socket_path);
        setup_s.push_back(live->totalS);
        gen_ms.push_back(live->generateMs);
        flat_ms.push_back(live->flattenMs);
        det_ms.push_back(live->determinizeMs);
        start_ms.push_back(live->startMs);
    }

    // Traffic: one corpus per connection, and the reference run of each
    // corpus slice, before anything is timed.
    std::vector<Connection> conns(kConnections);
    runThreads(kConnections, [&](size_t c) {
        Connection &cx = conns[c];
        cx.spec = spec;
        cx.index = c;
        cx.tenant = &live->tenants[spec->connTenant[c]];
        Rng rng(mix64(args.seed) ^ mix64(c + 1));
        cx.corpus =
            synthesizeInput(cx.tenant->workload.input, corpus_bytes, rng);
        const size_t slice = cx.newSchedule()->sliceBytes();
        Engine engine(*cx.tenant->fa);
        for (size_t off = 0; off + slice <= corpus_bytes; off += slice)
            cx.references.emplace_back(
                engine.run({cx.corpus.data() + off, slice}));
    });

    std::atomic<bool> transport_failed{false};
    const double warmup = std::min(1.0, 0.1 * args.seconds);
    const double cpu0 = cpuSeconds();
    const auto host0 = hostCpuJiffies();
    const SocketRun run =
        runSocket(conns, socket_path, warmup, args.seconds,
                  args.corruptDigest, &transport_failed);
    const double run_cpu_s = cpuSeconds() - cpu0;
    const auto host1 = hostCpuJiffies();
    // Share of the machine's CPU time the hypervisor gave elsewhere.
    const double steal_pct =
        host1.second > host0.second
            ? 100.0 * (host1.first - host0.first) /
                  (host1.second - host0.second)
            : 0.0;
    const serve::AdmissionStats adm = live->server->admission().stats();
    const uint64_t bad_frames = live->server->stats().badFrames;

    // Tally: a request succeeded if it was answered Ok and every stream
    // it touched passed the gate at its close.
    uint64_t attempted = 0, succeeded = 0, reports = 0, fed_total = 0;
    std::vector<double> latencies;
    std::vector<double> window_mbps(kWindows, 0.0);
    for (const Connection &cx : conns) {
        for (const Digest &d : cx.got)
            reports += d.count;
        auto sch = cx.newSchedule();
        for (size_t i = 0; i < cx.requests; ++i) {
            const Request &r = replayRequest(cx, *sch);
            bool ok = cx.requestOk[i];
            for (const Entry &e : r.entries)
                ok = ok && cx.streamOk[e.stream];
            ++attempted;
            succeeded += ok;
        }
        fed_total += cx.fedBytes;
        latencies.insert(latencies.end(), cx.latencyUs.begin(),
                         cx.latencyUs.end());
        for (size_t w = 0; w < kWindows; ++w)
            window_mbps[w] += cx.windowBytes[w] / (args.seconds / kWindows) /
                              1e6;
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p90 = percentile(latencies, 0.90);
    const size_t beyond_p90 = static_cast<size_t>(
        latencies.end() -
        std::upper_bound(latencies.begin(), latencies.end(), p90));
    const double success =
        attempted ? static_cast<double>(succeeded) / attempted : 0.0;
    bool correct = !transport_failed.load() && succeeded == attempted &&
                   reports > 0;

    std::printf(
        "{\"meta\": {\"workload\": \"%s\", \"commit\": \"%s\", \"cpu\": "
        "\"%s\", \"nproc\": %u, \"isa\": \"%s\", \"build_type\": \"%s\", "
        "\"seed\": %llu, \"seconds\": %.3f, \"warmup_s\": %.3f, "
        "\"connections\": %zu, \"bytes_per_connection\": [%llu, %llu], "
        "\"corpus_bytes\": %zu, \"tiny\": %s}}\n",
        spec->name, jsonEscape(args.commit).c_str(),
        jsonEscape(cpuModel()).c_str(), std::thread::hardware_concurrency(),
        simd::isaName(simd::activeIsa()), PERFBENCH_BUILD_TYPE,
        static_cast<unsigned long long>(args.seed), args.seconds, warmup,
        kConnections, static_cast<unsigned long long>(conns[0].fedBytes),
        static_cast<unsigned long long>(conns[1].fedBytes), corpus_bytes,
        args.tiny ? "true" : "false");
    std::printf("reports=%llu requests=%llu ok=%llu feed_samples=%zu "
                "beyond_p90=%zu p50_us=%.1f p90_us=%.1f wall_s=%.2f "
                "cpu_s=%.2f steal_pct=%.2f window_mbps=[",
                static_cast<unsigned long long>(reports),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(succeeded),
                latencies.size(), beyond_p90, p50, p90, run.wallS,
                run_cpu_s, steal_pct);
    for (size_t w = 0; w < kWindows; ++w)
        std::printf("%s%.2f", w ? ", " : "", window_mbps[w]);
    std::printf("]\n");
    if (reports == 0)
        std::printf("FAIL: no reports: the digest gate compared nothing\n");
    if (succeeded != attempted)
        std::printf("FAIL: %llu of %llu requests failed or carried "
                    "mismatching reports\n",
                    static_cast<unsigned long long>(attempted - succeeded),
                    static_cast<unsigned long long>(attempted));

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"throughput_mbps", median(window_mbps), "MB/s"},
            {"feed_p50_us", p50, "us"},
            {"feed_p90_us", p90, "us"},
            {"setup_s", median(setup_s), "s"},
            {"success_rate", success, "ratio"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        live.reset();
        printResult(correct, attempted, attempted - succeeded, metrics);
        return correct ? 0 : 1;
    }

    // ---- traced run: replay the exact request sequence per layer.
    std::vector<std::unique_ptr<SpanLog>> logs;
    auto newLog = [&]() {
        logs.push_back(std::make_unique<SpanLog>(
            epoch, static_cast<uint32_t>(logs.size() + 1)));
        return logs.back().get();
    };

    // Store codecs on each flat automaton (with its DFA, if any).
    double encode_ms = 0.0, decode_ms = 0.0;
    {
        SpanLog *log = newLog();
        for (const Tenant &t : live->tenants) {
            int32_t sp = log->open("store.encode", 0);
            store::BlobWriter w(store::ArtifactKind::FlatAutomaton, 1);
            store::encodeFlatAutomaton(*t.fa, w);
            std::vector<uint8_t> image = w.finalize();
            log->close(sp);
            sp = log->open("store.decode", 0);
            std::string error;
            auto blob = store::BlobView::fromBuffer(std::move(image), &error);
            auto fa = blob ? store::decodeFlatAutomaton(*blob, 0, &error)
                           : nullptr;
            log->close(sp);
            if (fa == nullptr || fa->size() != t.fa->size())
                fatal("perfbench: store round trip: ", error);
        }
        encode_ms = log->total("store.encode").first / 1e6;
        decode_ms = log->total("store.decode").first / 1e6;
    }

    // Replay the run through the three entry points. Each connection's
    // thread walks its requests in kReplayBlocks blocks, and each block
    // goes through layer 1, 2 and 3 in turn, both threads in step (a
    // barrier ends each phase). Host drift then hits the three layers
    // alike instead of whichever replay ran during a slow spell.
    live->server->stop();
    serve::MatchService service; // layer 2
    serve::MatchService served;  // behind layer 3's socket
    for (const Tenant &t : live->tenants) {
        service.addTenant(t.label, t.fa);
        served.addTenant(t.label, t.fa);
    }
    serve::ServerConfig cfg;
    cfg.socketPath = socket_path;
    serve::Server server(&served, cfg);
    std::string error;
    if (!server.start(&error))
        fatal("server start: ", error);

    std::vector<SpanLog *> conn_log;
    for (size_t c = 0; c < kConnections; ++c)
        conn_log.push_back(newLog());
    std::vector<Clock::time_point> phase_end;
    std::barrier sync(static_cast<std::ptrdiff_t>(kConnections),
                      [&]() noexcept { phase_end.push_back(Clock::now()); });
    std::vector<KernelTally> kt(kConnections);
    std::vector<uint64_t> service_reports(kConnections),
        wire_reports(kConnections), parked_peak(kConnections);
    runThreads(kConnections, [&](size_t c) {
        KernelReplay kernel(conns[c], conn_log[c]);
        ServiceReplay svc(conns[c], &service, conn_log[c]);
        SocketReplay wire(conns[c], socket_path, conn_log[c]);
        const size_t n = conns[c].requests;
        for (size_t b = 0; b < kReplayBlocks; ++b) {
            const size_t count =
                n * (b + 1) / kReplayBlocks - n * b / kReplayBlocks;
            for (size_t i = 0; i < count; ++i)
                kernel.step();
            sync.arrive_and_wait();
            for (size_t i = 0; i < count; ++i)
                svc.step();
            sync.arrive_and_wait();
            for (size_t i = 0; i < count; ++i)
                wire.step();
            sync.arrive_and_wait();
        }
        kt[c] = kernel.tally;
        service_reports[c] = svc.reports;
        parked_peak[c] = svc.parkedPeak;
        wire_reports[c] = wire.reports;
    });
    server.stop();
    const serve::ServiceStats svc_stats = service.stats();
    double traced_wall = 0.0; // the socket phases only
    for (size_t b = 0; b < kReplayBlocks; ++b)
        traced_wall += std::chrono::duration<double>(phase_end[3 * b + 2] -
                                                     phase_end[3 * b + 1])
                           .count();

    auto sum = [&](const char *name) {
        std::pair<double, uint64_t> total{0.0, 0};
        for (const auto &log : logs) {
            const auto t = log->total(name);
            total.first += t.first;
            total.second += t.second;
        }
        return total;
    };
    KernelTally k;
    uint64_t svc_reports = 0, socket_reports = 0, parked = 0;
    for (size_t c = 0; c < kConnections; ++c) {
        k.feeds += kt[c].feeds;
        k.bytes += kt[c].bytes;
        k.reports += kt[c].reports;
        k.skipped += kt[c].skipped;
        k.snapshotBytes += kt[c].snapshotBytes;
        for (size_t m = 0; m < 4; ++m)
            k.modeBytes[m] += kt[c].modeBytes[m];
        svc_reports += service_reports[c];
        socket_reports += wire_reports[c];
        parked = std::max(parked, parked_peak[c]);
    }
    if (k.reports != reports || svc_reports != reports ||
        socket_reports != reports) {
        std::printf("FAIL: replay report counts differ: socket run %llu, "
                    "kernel %llu, service %llu, socket replay %llu\n",
                    static_cast<unsigned long long>(reports),
                    static_cast<unsigned long long>(k.reports),
                    static_cast<unsigned long long>(svc_reports),
                    static_cast<unsigned long long>(socket_reports));
        correct = false;
    }

    const uint64_t requests = attempted;
    const uint64_t feed_requests = k.feeds;
    const double kernel_ns = sum("kernel.feed").first;
    const double service_ns = sum("service.request").first;
    const double socket_ns = sum("socket.request").first;
    const auto suspend = sum("session.suspend");
    const auto resume = sum("session.resume");
    const double codec_ns = sum("wire.codec").first;
    const double bytes = static_cast<double>(std::max<uint64_t>(k.bytes, 1));
    auto perCall = [](std::pair<double, uint64_t> t) {
        return t.second ? t.first / 1e3 / t.second : 0.0;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double untraced_mbps = fed_total / run.wallS / 1e6;
    const double traced_mbps = fed_total / traced_wall / 1e6;

    metrics = {
        {"workloads.generate_ms", median(gen_ms), "ms"},
        {"sim.flatten_ms", median(flat_ms), "ms"},
        {"sim.determinize_ms", median(det_ms), "ms"},
        {"sim.dfa_tenants", static_cast<double>(live->dfaTenants), "count"},
        {"serve.start_ms", median(start_ms), "ms"},
        {"store.encode_ms", encode_ms, "ms"},
        {"store.decode_ms", decode_ms, "ms"},
        {"sim.feed_ns_per_byte", kernel_ns / bytes, "ns/B"},
        {"sim.sparse_byte_share", k.modeBytes[0] / bytes, "ratio"},
        {"sim.dense_byte_share", k.modeBytes[1] / bytes, "ratio"},
        {"sim.dfa_byte_share", k.modeBytes[2] / bytes, "ratio"},
        {"sim.skip_ratio", k.skipped / bytes, "ratio"},
        {"sim.reports_per_mb", k.reports / (bytes / 1e6), "1/MB"},
        {"sim.suspend_us", perCall(suspend), "us"},
        {"sim.resume_us", perCall(resume), "us"},
        {"sim.snapshot_bytes", ratio(k.snapshotBytes, suspend.second), "B"},
        {"serve.service_self_us", (service_ns - kernel_ns) / 1e3 / requests,
         "us"},
        {"serve.parks_per_request", ratio(svc_stats.parks, feed_requests),
         "ratio"},
        {"serve.resumes_per_request",
         ratio(svc_stats.resumes, feed_requests), "ratio"},
        {"serve.parked_bytes_peak", static_cast<double>(parked), "B"},
        {"serve.fused_request_ratio",
         ratio(svc_stats.fusedFeeds, feed_requests), "ratio"},
        {"serve.wire_self_us", (socket_ns - service_ns) / 1e3 / requests,
         "us"},
        {"serve.codec_ns_per_byte", codec_ns / bytes, "ns/B"},
        {"serve.admission_rejects", static_cast<double>(adm.shed), "count"},
        {"serve.bad_frames", static_cast<double>(bad_frames), "count"},
        {"share.kernel", ratio(kernel_ns, socket_ns), "ratio"},
        {"share.service", ratio(service_ns - kernel_ns, socket_ns), "ratio"},
        {"share.wire", ratio(socket_ns - service_ns, socket_ns), "ratio"},
        {"trace.overhead_pct",
         100.0 * (untraced_mbps - traced_mbps) / untraced_mbps, "%"},
    };
    const std::string trace_path = sock_base + "-trace.json";
    writeChromeTrace(trace_path, logs);
    std::printf("trace: %s (%zu requests replayed per layer)\n",
                trace_path.c_str(), static_cast<size_t>(requests));
    live.reset();
    printResult(correct, attempted, attempted - succeeded, metrics);
    return correct ? 0 : 1;
}
