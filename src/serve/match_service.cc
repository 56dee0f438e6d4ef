#include "serve/match_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "sim/stream_batch.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/request_trace.h"

namespace sparseap {
namespace serve {

namespace {

telemetry::Counter &
feedsCounter()
{
    static telemetry::Counter c("serve.feeds");
    return c;
}

telemetry::Counter &
fedBytesCounter()
{
    static telemetry::Counter c("serve.fed_bytes");
    return c;
}

telemetry::Counter &
parksCounter()
{
    static telemetry::Counter c("serve.parks");
    return c;
}

telemetry::Counter &
resumesCounter()
{
    static telemetry::Counter c("serve.resumes");
    return c;
}

telemetry::Gauge &
activeStreamsGauge()
{
    static telemetry::Gauge g("serve.active_streams");
    return g;
}

telemetry::Gauge &
residentGauge()
{
    static telemetry::Gauge g("serve.resident_sessions");
    return g;
}

telemetry::Gauge &
parkedGauge()
{
    static telemetry::Gauge g("serve.parked_sessions");
    return g;
}

telemetry::Gauge &
parkedBytesGauge()
{
    static telemetry::Gauge g("serve.parked_bytes");
    return g;
}

// Per-tenant attribution families (bounded cardinality; leaked
// singletons so series survive service teardown like registry cells).
telemetry::LabeledCounter &
feedsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.feeds");
    return c;
}

telemetry::LabeledCounter &
fedBytesByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.fed_bytes");
    return c;
}

telemetry::LabeledCounter &
dfaCyclesByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.dfa_cycles");
    return c;
}

telemetry::LabeledCounter &
denseCyclesByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.dense_cycles");
    return c;
}

telemetry::LabeledCounter &
sparseCyclesByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.sparse_cycles");
    return c;
}

telemetry::LabeledCounter &
skipSymbolsByTenant()
{
    static auto &c =
        *new telemetry::LabeledCounter("serve.skip_symbols");
    return c;
}

telemetry::LabeledCounter &
skipJumpsByTenant()
{
    static auto &c = *new telemetry::LabeledCounter("serve.skip_jumps");
    return c;
}

telemetry::LabeledGauge &
parkedBytesByTenant()
{
    static auto &g =
        *new telemetry::LabeledGauge("serve.parked_bytes");
    return g;
}

/** One feed call's per-tenant attribution, folded once at checkin
 *  (never per symbol — see the kernel instrumentation rules). */
struct TenantFold
{
    uint64_t feeds = 0;
    uint64_t bytes = 0;
    uint64_t dfaCycles = 0;
    uint64_t denseCycles = 0;
    uint64_t sparseCycles = 0;
    uint64_t skipSymbols = 0;
    uint64_t skipJumps = 0;

    /** Attribute one session's stats delta. The whole delta lands on
     *  the phase the session ended the feed in — a feed spanning a
     *  hot-set handover splits at feed, not cycle, granularity. */
    void
    addDelta(const SessionStats &before, const SessionStats &after,
             const EngineSession &session)
    {
        const uint64_t cycles = after.cycles - before.cycles;
        if (session.dfaPhase())
            dfaCycles += cycles;
        else if (session.resolvedMode() == EngineMode::Dense)
            denseCycles += cycles;
        else
            sparseCycles += cycles;
        skipSymbols += after.skippedSymbols - before.skippedSymbols;
        skipJumps += after.skipJumps - before.skipJumps;
    }

    /** Like addDelta for a from-scratch run (one-shot batch lanes),
     *  classified by the stats flags instead of a live session. */
    void
    addRun(const SessionStats &run)
    {
        if (run.usedDfa)
            dfaCycles += run.cycles;
        else if (run.usedDenseCore)
            denseCycles += run.cycles;
        else
            sparseCycles += run.cycles;
        skipSymbols += run.skippedSymbols;
        skipJumps += run.skipJumps;
    }

    void
    publish(const std::string &tenant) const
    {
        feedsByTenant().add(tenant, feeds);
        if (bytes)
            fedBytesByTenant().add(tenant, bytes);
        if (dfaCycles)
            dfaCyclesByTenant().add(tenant, dfaCycles);
        if (denseCycles)
            denseCyclesByTenant().add(tenant, denseCycles);
        if (sparseCycles)
            sparseCyclesByTenant().add(tenant, sparseCycles);
        if (skipSymbols)
            skipSymbolsByTenant().add(tenant, skipSymbols);
        if (skipJumps)
            skipJumpsByTenant().add(tenant, skipJumps);
    }
};

} // namespace

const char *
opStatusName(OpStatus s)
{
    switch (s) {
    case OpStatus::Ok:
        return "ok";
    case OpStatus::UnknownTenant:
        return "unknown-tenant";
    case OpStatus::UnknownStream:
        return "unknown-stream";
    case OpStatus::StreamExists:
        return "stream-exists";
    case OpStatus::TooManyStreams:
        return "too-many-streams";
    }
    return "?";
}

/**
 * One stream of one tenant. Exactly one of {resident, parked, fresh}
 * holds: a resident stream has a live session attached; a parked one
 * carries its state in `snapshot`; a fresh one has consumed nothing
 * and materializes via restart() on first checkout. Streams are held
 * by shared_ptr so a caller blocked on `busy` can revalidate against
 * the table after waking instead of dereferencing a freed entry.
 */
struct MatchService::Stream
{
    uint64_t id = 0;      ///< table key (checkin re-finds the entry)
    bool fresh = true;    ///< never checked out; no snapshot yet
    bool resident = false;
    bool busy = false;    ///< checked out by some caller
    bool doomed = false;  ///< owner released while busy; destroy at checkin
    std::unique_ptr<EngineSession> session; ///< when resident
    EngineSession::Snapshot snapshot;       ///< when parked
    uint64_t snapshotBytes = 0;
    uint64_t offset = 0; ///< mirror of the session offset while parked
    uint64_t lru = 0;    ///< last-checkout tick (park order)
    uint64_t owner = 0;  ///< connection tag for releaseOwner()
};

struct MatchService::Tenant
{
    std::string name;
    std::shared_ptr<const FlatAutomaton> fa;
    SessionConfig session;
    EngineMode core = EngineMode::Auto; ///< TenantInfo::core
    std::unordered_map<uint64_t, std::shared_ptr<Stream>> streams;
    /** Idle sessions kept for reuse (allocation recycling). */
    std::vector<std::unique_ptr<EngineSession>> pool;
};

MatchService::MatchService(MatchServiceConfig config) : config_(config) {}

MatchService::~MatchService() = default;

void
MatchService::addTenant(const std::string &name,
                        std::shared_ptr<const FlatAutomaton> fa,
                        SessionConfig session)
{
    SPARSEAP_ASSERT(fa != nullptr, "tenant automaton must be non-null");
    auto t = std::make_unique<Tenant>();
    // Determinize outside the lock: it can take a while.
    t->core = initialCore(*fa, session.mode);
    t->name = name;
    t->fa = std::move(fa);
    t->session = session;
    std::lock_guard<std::mutex> lock(mutex_);
    tenants_[name] = std::move(t);
}

bool
MatchService::hasTenant(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_.count(name) != 0;
}

std::vector<TenantInfo>
MatchService::tenants() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TenantInfo> out;
    out.reserve(tenants_.size());
    for (const auto &[name, t] : tenants_)
        out.push_back({name, t->fa->size(), t->streams.size(), t->core});
    return out;
}

MatchService::Tenant *
MatchService::findTenant(const std::string &name)
{
    auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
}

const MatchService::Tenant *
MatchService::findTenant(const std::string &name) const
{
    auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
}

std::unique_ptr<EngineSession>
MatchService::takeSessionLocked(Tenant *tenant)
{
    if (!tenant->pool.empty()) {
        std::unique_ptr<EngineSession> s =
            std::move(tenant->pool.back());
        tenant->pool.pop_back();
        return s;
    }
    return std::make_unique<EngineSession>(*tenant->fa,
                                           tenant->session);
}

void
MatchService::recycleSessionLocked(Tenant *tenant,
                                   std::unique_ptr<EngineSession> session)
{
    if (tenant->pool.size() < config_.sessionPoolSize)
        tenant->pool.push_back(std::move(session));
    // else: dropped; the pool bounds idle engine memory per tenant.
}

void
MatchService::publishGaugesLocked()
{
    size_t open = 0;
    for (const auto &[name, t] : tenants_) {
        open += t->streams.size();
        if (config_.tenantMetrics) {
            uint64_t parked = 0;
            for (const auto &[id, s] : t->streams)
                parked += s->snapshotBytes;
            parkedBytesByTenant().set(name, parked);
        }
    }
    activeStreamsGauge().set(static_cast<int64_t>(open));
    residentGauge().set(static_cast<int64_t>(resident_count_));
    parkedGauge().set(
        static_cast<int64_t>(open >= resident_count_
                                 ? open - resident_count_
                                 : 0));
    parkedBytesGauge().set(static_cast<int64_t>(parked_bytes_));
}

OpStatus
MatchService::open(const std::string &tenant_name, uint64_t stream_id,
                   uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant *t = findTenant(tenant_name);
    if (t == nullptr)
        return OpStatus::UnknownTenant;
    if (t->streams.count(stream_id))
        return OpStatus::StreamExists;
    if (t->streams.size() >= config_.maxStreamsPerTenant)
        return OpStatus::TooManyStreams;
    auto stream = std::make_shared<Stream>();
    stream->id = stream_id;
    stream->owner = owner;
    t->streams.emplace(stream_id, std::move(stream));
    ++stats_.streamsOpened;
    publishGaugesLocked();
    return OpStatus::Ok;
}

void
MatchService::checkoutLocked(std::unique_lock<std::mutex> *lock,
                             Tenant *tenant, Stream *stream)
{
    while (stream->busy)
        busy_cv_.wait(*lock);

    if (!stream->resident) {
        std::unique_ptr<EngineSession> session =
            takeSessionLocked(tenant);
        if (stream->fresh) {
            session->restart();
            stream->fresh = false;
        } else {
            session->resume(stream->snapshot);
            stream->snapshot = EngineSession::Snapshot{};
            parked_bytes_ -= stream->snapshotBytes;
            stream->snapshotBytes = 0;
            ++stats_.resumes;
            resumesCounter().add(1);
        }
        stream->session = std::move(session);
        stream->resident = true;
        ++resident_count_;
    }
    stream->busy = true;
    stream->lru = ++lru_clock_;
}

void
MatchService::parkLocked(Tenant *tenant, Stream *stream)
{
    stream->snapshot = stream->session->suspend();
    stream->snapshotBytes = stream->snapshot.byteSize();
    stream->offset = stream->session->offset();
    parked_bytes_ += stream->snapshotBytes;
    recycleSessionLocked(tenant, std::move(stream->session));
    stream->resident = false;
    --resident_count_;
    ++stats_.parks;
    parksCounter().add(1);
}

void
MatchService::enforceBudgetLocked()
{
    // Linear LRU scan over the session table: parking happens at most
    // once per feed past the budget, and the table is small relative
    // to the work a feed does; a heap would only matter at stream
    // counts where the snapshots themselves dominate memory.
    while (resident_count_ > config_.residentSessions) {
        Tenant *victim_tenant = nullptr;
        Stream *victim = nullptr;
        for (const auto &[name, t] : tenants_) {
            for (const auto &[id, s] : t->streams) {
                if (!s->resident || s->busy)
                    continue;
                if (victim == nullptr || s->lru < victim->lru) {
                    victim = s.get();
                    victim_tenant = t.get();
                }
            }
        }
        if (victim == nullptr)
            break; // everything resident is busy; retry next checkin
        parkLocked(victim_tenant, victim);
    }
}

void
MatchService::destroyStreamLocked(Tenant *tenant, uint64_t stream_id,
                                  Stream *stream)
{
    if (stream->resident) {
        recycleSessionLocked(tenant, std::move(stream->session));
        stream->resident = false;
        --resident_count_;
    } else if (!stream->fresh) {
        parked_bytes_ -= stream->snapshotBytes;
    }
    tenant->streams.erase(stream_id);
    ++stats_.streamsClosed;
}

void
MatchService::checkinLocked(Tenant *tenant, Stream *stream)
{
    stream->busy = false;
    if (stream->resident)
        stream->offset = stream->session->offset();

    // A close() or releaseOwner() can win the busy-wait race and erase
    // the table entry between this caller's checkout wait and its wake;
    // the shared_ptr keeps the Stream alive, but the resident session
    // must be detached here or the budget leaks a ghost forever.
    auto it = tenant->streams.find(stream->id);
    const bool in_table =
        it != tenant->streams.end() && it->second.get() == stream;
    if (!in_table) {
        if (stream->resident) {
            recycleSessionLocked(tenant, std::move(stream->session));
            stream->resident = false;
            --resident_count_;
        }
    } else if (stream->doomed) {
        // Owner disconnected while the feed ran; destroy at checkin.
        destroyStreamLocked(tenant, stream->id, stream);
    }
    enforceBudgetLocked();
    publishGaugesLocked();
    busy_cv_.notify_all();
}

OpStatus
MatchService::feed(const std::string &tenant_name, uint64_t stream_id,
                   std::span<const uint8_t> chunk, ReportGroup *out)
{
    std::shared_ptr<Stream> stream;
    Tenant *t = nullptr;
    {
        telemetry::RequestSpanScope checkout_span("service.checkout");
        std::unique_lock<std::mutex> lock(mutex_);
        t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        auto it = t->streams.find(stream_id);
        if (it == t->streams.end())
            return OpStatus::UnknownStream;
        stream = it->second;
        checkoutLocked(&lock, t, stream.get());
        // Revalidate: the stream may have been closed or swept while
        // this caller waited on the busy flag.
        auto again = t->streams.find(stream_id);
        if (again == t->streams.end() || again->second != stream) {
            checkinLocked(t, stream.get());
            return OpStatus::UnknownStream;
        }
    }

    if (config_.debugFeedDelayMicros != 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.debugFeedDelayMicros));

    const SessionStats before = stream->session->stats();
    {
        telemetry::RequestSpanScope feed_span("session.feed");
        stream->session->feed(chunk);
    }
    out->streamId = stream_id;
    out->streamOffset = stream->session->offset();
    out->reports = stream->session->takeReports();
    if (config_.tenantMetrics) {
        TenantFold fold;
        fold.feeds = 1;
        fold.bytes = chunk.size();
        fold.addDelta(before, stream->session->stats(),
                      *stream->session);
        fold.publish(tenant_name);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.feeds;
        stats_.fedBytes += chunk.size();
        feedsCounter().add(1);
        fedBytesCounter().add(chunk.size());
        checkinLocked(t, stream.get());
    }
    return OpStatus::Ok;
}

OpStatus
MatchService::feedMany(const std::string &tenant_name,
                       std::span<const FeedEntry> entries,
                       std::vector<ReportGroup> *out)
{
    out->clear();
    if (entries.empty())
        return OpStatus::Ok;

    // Duplicate stream ids degrade to ordered single feeds (the fused
    // path advances each participating stream exactly once).
    std::vector<uint64_t> ids;
    ids.reserve(entries.size());
    for (const FeedEntry &e : entries)
        ids.push_back(e.streamId);
    std::sort(ids.begin(), ids.end());
    const bool has_dup =
        std::adjacent_find(ids.begin(), ids.end()) != ids.end();
    if (has_dup) {
        out->resize(entries.size());
        for (size_t i = 0; i < entries.size(); ++i) {
            const OpStatus st = feed(tenant_name, entries[i].streamId,
                                     entries[i].chunk, &(*out)[i]);
            if (st != OpStatus::Ok)
                return st;
        }
        return OpStatus::Ok;
    }

    Tenant *t = nullptr;
    std::vector<std::shared_ptr<Stream>> streams(entries.size());
    {
        std::unique_lock<std::mutex> lock(mutex_);
        t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        for (const FeedEntry &e : entries)
            if (!t->streams.count(e.streamId))
                return OpStatus::UnknownStream;
        // Checkout in ascending id order: concurrent feedMany calls
        // acquiring overlapping stream sets can't deadlock on each
        // other's busy flags.
        for (uint64_t id : ids) {
            const size_t slot =
                static_cast<size_t>(std::find_if(
                                        entries.begin(), entries.end(),
                                        [&](const FeedEntry &e) {
                                            return e.streamId == id;
                                        }) -
                                    entries.begin());
            auto it = t->streams.find(id);
            bool gone = it == t->streams.end();
            if (!gone) {
                streams[slot] = it->second;
                checkoutLocked(&lock, t, streams[slot].get());
                auto again = t->streams.find(id);
                gone = again == t->streams.end() ||
                       again->second != streams[slot];
            }
            if (gone) {
                // Swept while a checkout waited: release everything
                // this call holds (a non-null slot is one it checked
                // out, so its busy flag is ours) and fail.
                for (size_t k = 0; k < entries.size(); ++k)
                    if (streams[k])
                        checkinLocked(t, streams[k].get());
                return OpStatus::UnknownStream;
            }
        }
    }

    if (config_.debugFeedDelayMicros != 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.debugFeedDelayMicros));

    std::vector<SessionStats> before;
    if (config_.tenantMetrics) {
        before.reserve(entries.size());
        for (const std::shared_ptr<Stream> &s : streams)
            before.push_back(s->session->stats());
    }

    // Partition into the fused DFA cohort and individual feeds. The
    // cohort shares one interleaved table walk (EngineSession::
    // feedFused); everyone else advances through the ordinary path.
    telemetry::RequestSpanScope feed_span("service.feed_many");
    std::vector<EngineSession *> fused_sessions;
    std::vector<std::span<const uint8_t>> fused_chunks;
    std::vector<size_t> fused_slots;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (streams[i]->session->dfaPhase()) {
            fused_sessions.push_back(streams[i]->session.get());
            fused_chunks.push_back(entries[i].chunk);
            fused_slots.push_back(i);
        }
    }
    if (fused_sessions.size() >= 2) {
        EngineSession::feedFused(
            std::span<EngineSession *const>(fused_sessions),
            std::span<const std::span<const uint8_t>>(fused_chunks));
    } else {
        fused_slots.clear();
    }
    for (size_t i = 0; i < entries.size(); ++i) {
        const bool in_fused =
            std::find(fused_slots.begin(), fused_slots.end(), i) !=
            fused_slots.end();
        if (!in_fused)
            streams[i]->session->feed(entries[i].chunk);
    }

    out->resize(entries.size());
    uint64_t bytes = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        ReportGroup &g = (*out)[i];
        g.streamId = entries[i].streamId;
        g.streamOffset = streams[i]->session->offset();
        g.reports = streams[i]->session->takeReports();
        bytes += entries[i].chunk.size();
    }

    if (config_.tenantMetrics) {
        TenantFold fold;
        fold.feeds = entries.size();
        fold.bytes = bytes;
        for (size_t i = 0; i < entries.size(); ++i)
            fold.addDelta(before[i], streams[i]->session->stats(),
                          *streams[i]->session);
        fold.publish(tenant_name);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.feeds += entries.size();
        stats_.fedBytes += bytes;
        if (!fused_slots.empty())
            ++stats_.fusedFeeds;
        feedsCounter().add(entries.size());
        fedBytesCounter().add(bytes);
        for (size_t i = 0; i < entries.size(); ++i)
            checkinLocked(t, streams[i].get());
    }
    return OpStatus::Ok;
}

OpStatus
MatchService::close(const std::string &tenant_name, uint64_t stream_id,
                    ReportGroup *out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Tenant *t = findTenant(tenant_name);
    if (t == nullptr)
        return OpStatus::UnknownTenant;
    auto it = t->streams.find(stream_id);
    if (it == t->streams.end())
        return OpStatus::UnknownStream;
    std::shared_ptr<Stream> stream = it->second;

    while (stream->busy)
        busy_cv_.wait(lock);
    auto again = t->streams.find(stream_id);
    if (again == t->streams.end() || again->second != stream)
        return OpStatus::UnknownStream;

    out->streamId = stream_id;
    if (stream->resident) {
        out->streamOffset = stream->session->offset();
        out->reports = stream->session->takeReports();
    } else {
        // Parked (or fresh) streams have no undrained reports — every
        // feed drains before a suspend.
        out->streamOffset = stream->offset;
        out->reports.clear();
    }
    destroyStreamLocked(t, stream_id, stream.get());
    publishGaugesLocked();
    busy_cv_.notify_all();
    return OpStatus::Ok;
}

OpStatus
MatchService::matchOneShot(const std::string &tenant_name,
                           std::span<const uint8_t> input,
                           ReportGroup *out)
{
    Tenant *t = nullptr;
    std::unique_ptr<EngineSession> session;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        session = takeSessionLocked(t);
    }

    session->restart();
    {
        telemetry::RequestSpanScope feed_span("session.match");
        session->feed(input);
    }
    out->streamId = 0;
    out->streamOffset = session->offset();
    out->reports = session->takeReports();
    if (config_.tenantMetrics) {
        TenantFold fold;
        fold.feeds = 1;
        fold.bytes = input.size();
        // restart() zeroed the stats, so the run *is* the delta.
        fold.addDelta(SessionStats{}, session->stats(), *session);
        fold.publish(tenant_name);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.feeds;
        stats_.fedBytes += input.size();
        feedsCounter().add(1);
        fedBytesCounter().add(input.size());
        recycleSessionLocked(t, std::move(session));
    }
    return OpStatus::Ok;
}

OpStatus
MatchService::matchBatch(const std::string &tenant_name,
                         std::span<const std::span<const uint8_t>> inputs,
                         std::vector<ReportGroup> *out)
{
    const FlatAutomaton *fa = nullptr;
    SessionConfig config;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const Tenant *t = findTenant(tenant_name);
        if (t == nullptr)
            return OpStatus::UnknownTenant;
        fa = t->fa.get();
        config = t->session;
    }

    StreamBatchRunner runner(*fa, config);
    std::vector<StreamResult> results;
    {
        telemetry::RequestSpanScope batch_span("session.match_batch");
        results = runner.run(inputs);
    }

    out->clear();
    out->resize(results.size());
    uint64_t bytes = 0;
    TenantFold fold;
    for (size_t i = 0; i < results.size(); ++i) {
        (*out)[i].streamId = i;
        (*out)[i].streamOffset = results[i].stats.cycles;
        (*out)[i].reports = std::move(results[i].reports);
        bytes += inputs[i].size();
        fold.addRun(results[i].stats);
    }
    if (config_.tenantMetrics) {
        fold.feeds = results.size();
        fold.bytes = bytes;
        fold.publish(tenant_name);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.feeds += results.size();
        stats_.fedBytes += bytes;
        feedsCounter().add(results.size());
        fedBytesCounter().add(bytes);
    }
    return OpStatus::Ok;
}

size_t
MatchService::releaseOwner(uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (const auto &[name, t] : tenants_) {
        for (auto it = t->streams.begin(); it != t->streams.end();) {
            Stream *s = it->second.get();
            if (s->owner != owner) {
                ++it;
                continue;
            }
            if (s->busy) {
                // A worker is mid-feed; it destroys the stream at
                // checkin (the doomed flag) so the session can't leak.
                s->doomed = true;
                ++it;
                ++dropped;
                continue;
            }
            const uint64_t id = it->first;
            ++it; // destroyStreamLocked erases `id`
            destroyStreamLocked(t.get(), id, s);
            ++dropped;
        }
    }
    publishGaugesLocked();
    busy_cv_.notify_all();
    return dropped;
}

size_t
MatchService::openStreamCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t open = 0;
    for (const auto &[name, t] : tenants_)
        open += t->streams.size();
    return open;
}

ServiceStats
MatchService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats s = stats_;
    size_t open = 0;
    for (const auto &[name, t] : tenants_)
        open += t->streams.size();
    s.activeStreams = open;
    s.residentSessions = resident_count_;
    s.parkedSessions =
        open >= resident_count_ ? open - resident_count_ : 0;
    s.parkedBytes = parked_bytes_;
    return s;
}

} // namespace serve
} // namespace sparseap
