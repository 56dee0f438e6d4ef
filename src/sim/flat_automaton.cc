#include "sim/flat_automaton.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "sim/hot_dfa.h"
#include "telemetry/trace.h"

namespace sparseap {

namespace {

/**
 * Compute the DenseView's derived execution accelerators — the chain
 * and fan-out masks and the dense start-dispatch rows (see their field
 * docs) — from the already-installed CSR and reporting spans. Called
 * by both construction paths (flatten and store-decode); the results
 * live in the view's owned storage and are never serialized, so the
 * store format is unaffected.
 */
void
computeDerivedArrays(FlatAutomaton::DenseView &dv)
{
    auto &own = dv.owned;
    const size_t n = dv.succBegin.size() - 1;

    own.chain.assign(dv.words, 0);
    for (GlobalStateId s = 0; s + 1 < n; ++s) {
        const uint32_t b = dv.succBegin[s];
        if (dv.succBegin[s + 1] != b + 1)
            continue;
        const GlobalStateId t = s + 1;
        if (dv.succWordIdx[b] == (t >> 6) &&
            dv.succWordMask[b] == (1ull << (t & 63)))
            setWordBit(own.chain.data(), s);
    }
    dv.chain = own.chain;

    own.fanout.assign(dv.words, 0);
    for (GlobalStateId s = 0; s < n; ++s) {
        if (dv.succBegin[s + 1] > dv.succBegin[s] &&
            !testWordBit(own.chain.data(), s))
            setWordBit(own.fanout.data(), s);
    }
    for (size_t w = 0; w < dv.words; ++w)
        own.fanout[w] |= dv.reporting[w];
    dv.fanout = own.fanout;

    own.startNextRow.assign(dv.classes, 0);
    uint32_t rows = 0;
    for (size_t c = 0; c < dv.classes; ++c) {
        const size_t entries =
            dv.startSuccBegin[c + 1] - dv.startSuccBegin[c];
        if (entries > 0 && entries * 8 >= dv.words)
            own.startNextRow[c] = ++rows;
    }
    own.startNextRows.assign(static_cast<size_t>(rows) * dv.stride, 0);
    for (size_t c = 0; c < dv.classes; ++c) {
        if (own.startNextRow[c] == 0)
            continue;
        uint64_t *row = own.startNextRows.data() +
                        static_cast<size_t>(own.startNextRow[c] - 1) *
                            dv.stride;
        for (uint32_t k = dv.startSuccBegin[c];
             k < dv.startSuccBegin[c + 1]; ++k)
            row[dv.startSuccWordIdx[k]] |= dv.startSuccWordMask[k];
    }
    dv.startNextRow = own.startNextRow;
    dv.startNextRows = own.startNextRows;

    // Quiescent scan set (see its field doc): a byte can wake the
    // all-idle configuration iff its class dispatches any reporting
    // start or contributes any pooled start successor.
    dv.staticScan.fill(0);
    for (unsigned b = 0; b < 256; ++b) {
        const uint8_t c = dv.classOf[b];
        if (dv.startBegin[c + 1] > dv.startBegin[c] ||
            dv.startSuccBegin[c + 1] > dv.startSuccBegin[c])
            dv.staticScan[b >> 6] |= 1ull << (b & 63);
    }
}

} // namespace

FlatAutomaton::FlatAutomaton(const Application &app,
                             DenseCompression compression)
    : compression_(compression)
{
    SPARSEAP_PHASE("flatten");
    const size_t n = app.totalStates();
    owned_.symbols.reserve(n);
    owned_.reporting.reserve(n);
    owned_.start.reserve(n);
    owned_.succ_begin.reserve(n + 1);

    size_t edge_count = 0;
    for (const auto &nfa : app.nfas())
        for (const auto &s : nfa.states())
            edge_count += s.successors.size();
    owned_.succ.reserve(edge_count);

    for (uint32_t ni = 0; ni < app.nfaCount(); ++ni) {
        const Nfa &nfa = app.nfa(ni);
        SPARSEAP_ASSERT(nfa.finalized(), "FlatAutomaton needs finalized NFAs");
        const GlobalStateId base = app.nfaOffset(ni);
        for (StateId si = 0; si < nfa.size(); ++si) {
            const State &st = nfa.state(si);
            const GlobalStateId gid = base + si;
            owned_.symbols.push_back(st.symbols);
            owned_.reporting.push_back(st.reporting ? 1 : 0);
            owned_.start.push_back(st.start);
            owned_.succ_begin.push_back(
                static_cast<uint32_t>(owned_.succ.size()));
            for (StateId t : st.successors)
                owned_.succ.push_back(base + t);
            if (st.start == StartKind::AllInput)
                owned_.all_input_starts.push_back(gid);
            else if (st.start == StartKind::StartOfData)
                owned_.sod_starts.push_back(gid);
        }
    }
    owned_.succ_begin.push_back(static_cast<uint32_t>(owned_.succ.size()));

    symbols_ = owned_.symbols;
    reporting_ = owned_.reporting;
    start_ = owned_.start;
    succ_begin_ = owned_.succ_begin;
    succ_ = owned_.succ;
    sod_starts_ = owned_.sod_starts;
    all_input_starts_ = owned_.all_input_starts;

    computeSymbolClasses();
    class_rep_ = owned_.class_rep;

    // One start-dispatch row per class instead of one per byte:
    // equivalent bytes select the same start states by definition, so
    // the 256 dispatch vectors of the old layout were #classes distinct
    // vectors stored up to 256 times. Stored as a CSR so a loaded
    // automaton can alias the same layout inside a file mapping.
    owned_.start_table_begin.reserve(class_count_ + 1);
    owned_.start_table_begin.push_back(0);
    for (size_t c = 0; c < class_count_; ++c) {
        for (GlobalStateId gid : owned_.all_input_starts) {
            if (owned_.symbols[gid].test(owned_.class_rep[c]))
                owned_.start_table.push_back(gid);
        }
        owned_.start_table_begin.push_back(
            static_cast<uint32_t>(owned_.start_table.size()));
    }
    start_table_begin_ = owned_.start_table_begin;
    start_table_ = owned_.start_table;
}

FlatAutomaton::FlatAutomaton(const Parts &parts)
    : backing_(parts.backing), symbols_(parts.symbols),
      reporting_(parts.reporting), start_(parts.start),
      succ_begin_(parts.succBegin), succ_(parts.succ),
      start_table_begin_(parts.startTableBegin),
      start_table_(parts.startTable), sod_starts_(parts.sodStarts),
      all_input_starts_(parts.allInputStarts), class_rep_(parts.classRep),
      compression_(parts.compression), class_count_(parts.classCount)
{
    SPARSEAP_ASSERT(parts.classOf.size() == 256 &&
                        parts.dense.classOf.size() == 256,
                    "malformed FlatAutomaton parts");
    std::copy(parts.classOf.begin(), parts.classOf.end(),
              class_of_.begin());

    // Install the dense view straight from the decoded sections — a
    // stored automaton always carries one, so nothing is ever rebuilt.
    std::call_once(dense_once_, [&] {
        auto dv = std::make_unique<DenseView>();
        const Parts::Dense &d = parts.dense;
        dv->words = d.words;
        dv->stride = DenseView::strideFor(d.words);
        dv->classes = d.classes;
        std::copy(d.classOf.begin(), d.classOf.end(),
                  dv->classOf.begin());
        dv->accept = d.accept;
        dv->reporting = d.reporting;
        dv->allInputStarts = d.allInputStarts;
        dv->sodStarts = d.sodStarts;
        dv->latchable = d.latchable;
        dv->succBegin = d.succBegin;
        dv->succWordIdx = d.succWordIdx;
        dv->succWordMask = d.succWordMask;
        dv->startBegin = d.startBegin;
        dv->startWordIdx = d.startWordIdx;
        dv->startWordMask = d.startWordMask;
        dv->startSuccBegin = d.startSuccBegin;
        dv->startSuccWordIdx = d.startSuccWordIdx;
        dv->startSuccWordMask = d.startSuccWordMask;
        computeDerivedArrays(*dv);
        if (d.scanMask.size() == dv->staticScan.size())
            std::copy(d.scanMask.begin(), d.scanMask.end(),
                      dv->staticScan.begin());
        dense_ = std::move(dv);
    });
}

FlatAutomaton::Parts
FlatAutomaton::parts() const
{
    const DenseView &dv = denseView();
    Parts p;
    p.compression = compression_;
    p.classCount = static_cast<uint32_t>(class_count_);
    p.classOf = {class_of_.data(), class_of_.size()};
    p.classRep = class_rep_;
    p.symbols = symbols_;
    p.reporting = reporting_;
    p.start = start_;
    p.succBegin = succ_begin_;
    p.succ = succ_;
    p.startTableBegin = start_table_begin_;
    p.startTable = start_table_;
    p.sodStarts = sod_starts_;
    p.allInputStarts = all_input_starts_;
    p.backing = backing_;

    Parts::Dense &d = p.dense;
    d.words = dv.words;
    d.classes = dv.classes;
    d.classOf = {dv.classOf.data(), dv.classOf.size()};
    d.accept = dv.accept;
    d.reporting = dv.reporting;
    d.allInputStarts = dv.allInputStarts;
    d.sodStarts = dv.sodStarts;
    d.latchable = dv.latchable;
    d.succBegin = dv.succBegin;
    d.succWordIdx = dv.succWordIdx;
    d.succWordMask = dv.succWordMask;
    d.startBegin = dv.startBegin;
    d.startWordIdx = dv.startWordIdx;
    d.startWordMask = dv.startWordMask;
    d.startSuccBegin = dv.startSuccBegin;
    d.startSuccWordIdx = dv.startSuccWordIdx;
    d.startSuccWordMask = dv.startSuccWordMask;
    d.scanMask = {dv.staticScan.data(), dv.staticScan.size()};
    return p;
}

std::shared_ptr<const HotDfa>
FlatAutomaton::ensureHotDfa() const
{
    std::call_once(dfa_once_, [this] {
        hot_dfa_ = HotDfa::build(*this, HotDfa::Limits::fromOptions());
        dfa_ready_.store(true, std::memory_order_release);
    });
    return hot_dfa_;
}

std::shared_ptr<const HotDfa>
FlatAutomaton::hotDfaIfBuilt() const
{
    if (!dfa_ready_.load(std::memory_order_acquire))
        return nullptr;
    return hot_dfa_;
}

void
FlatAutomaton::attachHotDfa(std::shared_ptr<const HotDfa> dfa) const
{
    std::call_once(dfa_once_, [this, &dfa] {
        hot_dfa_ = std::move(dfa);
        dfa_ready_.store(true, std::memory_order_release);
    });
}

void
FlatAutomaton::computeSymbolClasses()
{
    // Partition refinement over the byte alphabet: start with one class
    // and split it by every *distinct* symbol-set (duplicate sets refine
    // identically, and real automata draw their sets from a small pool).
    // New class ids are assigned in order of first byte occurrence, so
    // the map is deterministic and classes are sorted by their smallest
    // member byte.
    class_of_.fill(0);
    class_count_ = 1;

    std::unordered_map<uint64_t, std::vector<const SymbolSet *>> seen;
    seen.reserve(256);
    std::array<int16_t, 512> remap;
    std::array<uint8_t, 256> next_class;

    for (const SymbolSet &sym : symbols_) {
        if (class_count_ == 256)
            break; // fully split; no further refinement possible
        auto &bucket = seen[sym.hash()];
        const bool dup = std::any_of(
            bucket.begin(), bucket.end(),
            [&](const SymbolSet *p) { return *p == sym; });
        if (dup)
            continue;
        bucket.push_back(&sym);

        remap.fill(-1);
        uint16_t next = 0;
        for (unsigned b = 0; b < 256; ++b) {
            const unsigned key =
                class_of_[b] * 2u +
                (sym.test(static_cast<uint8_t>(b)) ? 1u : 0u);
            if (remap[key] < 0)
                remap[key] = static_cast<int16_t>(next++);
            next_class[b] = static_cast<uint8_t>(remap[key]);
        }
        class_of_ = next_class;
        class_count_ = next;
    }

    owned_.class_rep.assign(class_count_, 0);
    std::vector<uint8_t> have(class_count_, 0);
    for (unsigned b = 0; b < 256; ++b) {
        if (!have[class_of_[b]]) {
            have[class_of_[b]] = 1;
            owned_.class_rep[class_of_[b]] = static_cast<uint8_t>(b);
        }
    }
}

const FlatAutomaton::DenseView &
FlatAutomaton::denseView() const
{
    std::call_once(dense_once_, [this] {
        auto dv = std::make_unique<DenseView>();
        DenseView::Owned &own = dv->owned;
        const size_t n = size();
        dv->words = wordsForBits(n);
        dv->stride = DenseView::strideFor(dv->words);
        if (compression_ == DenseCompression::Raw) {
            dv->classes = 256;
            for (unsigned b = 0; b < 256; ++b)
                dv->classOf[b] = static_cast<uint8_t>(b);
        } else {
            dv->classes = class_count_;
            dv->classOf = class_of_;
        }
        own.accept.assign(dv->classes * dv->stride, 0);
        own.reporting.assign(dv->words, 0);
        own.allInputStarts.assign(dv->words, 0);
        own.sodStarts.assign(dv->words, 0);

        for (GlobalStateId s = 0; s < n; ++s) {
            const Bitset256 &sym = symbols_[s];
            if (dv->classes < 64) {
                // Few classes: probe one representative byte per row —
                // cheaper than walking every set bit of a wide set.
                for (size_t c = 0; c < class_count_; ++c) {
                    if (sym.test(class_rep_[c]))
                        setWordBit(own.accept.data() + c * dv->stride, s);
                }
            } else {
                // Transpose the 256-bit symbol set: for every accepted
                // byte b, set bit s of b's row (equivalent bytes simply
                // re-set the same bit). Iterate set bits of the four
                // symbol-set words instead of probing all 256 symbols.
                forEachSetBit(
                    std::span<const uint64_t>(sym.words), [&](size_t b) {
                        setWordBit(own.accept.data() +
                                       dv->classOf[b] * dv->stride,
                                   s);
                    });
            }
            if (reporting_[s])
                setWordBit(own.reporting.data(), s);
        }
        for (GlobalStateId s : all_input_starts_)
            setWordBit(own.allInputStarts.data(), s);
        for (GlobalStateId s : sod_starts_)
            setWordBit(own.sodStarts.data(), s);

        own.latchable.assign(dv->words, 0);
        for (GlobalStateId s = 0; s < n; ++s) {
            if (start_[s] != StartKind::None || reporting_[s])
                continue;
            uint64_t universal = ~0ull;
            for (uint64_t w : symbols_[s].words)
                universal &= w;
            if (universal != ~0ull)
                continue;
            const auto succ = successors(s);
            if (std::find(succ.begin(), succ.end(), s) != succ.end())
                setWordBit(own.latchable.data(), s);
        }

        // Word-level successor CSR. Successor lists are built in NFA
        // state order, which is nondecreasing in target word per state
        // often enough that grouping is a single linear merge. Bits of
        // always-enabled start states are dropped from the masks — the
        // start dispatch below keeps them active without ever putting
        // them in the dynamic enabled vector.
        own.succBegin.reserve(n + 1);
        own.succBegin.push_back(0);
        std::vector<GlobalStateId> sorted;
        for (GlobalStateId s = 0; s < n; ++s) {
            const auto succ = successors(s);
            sorted.assign(succ.begin(), succ.end());
            std::sort(sorted.begin(), sorted.end());
            for (size_t k = 0; k < sorted.size();) {
                const uint32_t word = sorted[k] >> 6;
                uint64_t mask = 0;
                for (; k < sorted.size() && (sorted[k] >> 6) == word; ++k)
                    mask |= 1ull << (sorted[k] & 63);
                mask &= ~own.allInputStarts[word];
                if (mask == 0)
                    continue;
                own.succWordIdx.push_back(word);
                own.succWordMask.push_back(mask);
            }
            own.succBegin.push_back(
                static_cast<uint32_t>(own.succWordIdx.size()));
        }

        // Per-class start dispatch (see the DenseView doc): reporting
        // starts as per-word activation masks in ascending word order
        // (the sweep merges them with the live dynamic words to emit
        // reports in state order), non-reporting starts as one pooled
        // successor-contribution list per class.
        own.startBegin.reserve(dv->classes + 1);
        own.startBegin.push_back(0);
        own.startSuccBegin.reserve(dv->classes + 1);
        own.startSuccBegin.push_back(0);
        WordVector contrib(dv->words, 0);
        for (size_t c = 0; c < dv->classes; ++c) {
            const uint64_t *row = own.accept.data() + c * dv->stride;
            for (size_t w = 0; w < dv->words; ++w) {
                const uint64_t m = row[w] & own.allInputStarts[w] &
                                   own.reporting[w];
                if (m != 0) {
                    own.startWordIdx.push_back(
                        static_cast<uint32_t>(w));
                    own.startWordMask.push_back(m);
                }
            }
            own.startBegin.push_back(
                static_cast<uint32_t>(own.startWordIdx.size()));

            const uint8_t rep =
                compression_ == DenseCompression::Raw
                    ? static_cast<uint8_t>(c)
                    : class_rep_[c];
            std::fill(contrib.begin(), contrib.end(), 0);
            for (GlobalStateId s : all_input_starts_) {
                if (reporting_[s] || !symbols_[s].test(rep))
                    continue;
                for (uint32_t k = own.succBegin[s];
                     k < own.succBegin[s + 1]; ++k)
                    contrib[own.succWordIdx[k]] |= own.succWordMask[k];
            }
            for (size_t w = 0; w < dv->words; ++w) {
                if (contrib[w] != 0) {
                    own.startSuccWordIdx.push_back(
                        static_cast<uint32_t>(w));
                    own.startSuccWordMask.push_back(contrib[w]);
                }
            }
            own.startSuccBegin.push_back(
                static_cast<uint32_t>(own.startSuccWordIdx.size()));
        }

        dv->accept = own.accept;
        dv->reporting = own.reporting;
        dv->allInputStarts = own.allInputStarts;
        dv->sodStarts = own.sodStarts;
        dv->latchable = own.latchable;
        dv->succBegin = own.succBegin;
        dv->succWordIdx = own.succWordIdx;
        dv->succWordMask = own.succWordMask;
        dv->startBegin = own.startBegin;
        dv->startWordIdx = own.startWordIdx;
        dv->startWordMask = own.startWordMask;
        dv->startSuccBegin = own.startSuccBegin;
        dv->startSuccWordIdx = own.startSuccWordIdx;
        dv->startSuccWordMask = own.startSuccWordMask;
        computeDerivedArrays(*dv);
        dense_ = std::move(dv);
    });
    return *dense_;
}

} // namespace sparseap
