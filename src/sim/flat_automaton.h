/**
 * @file
 * A flattened, simulation-friendly view of an Application.
 *
 * All NFAs are merged into one dense state space (GlobalStateId order) with
 * CSR adjacency and a per-symbol dispatch table for the always-enabled
 * start states — the software analogue of the AP feeding each input symbol
 * through the DRAM row decoder so all matching STEs activate in parallel.
 *
 * Real automata use only a handful of *character classes*: two bytes are
 * equivalent when every state either accepts both or rejects both, so the
 * 256-column byte alphabet collapses to a few equivalence classes (CAMA
 * exploits the same symbol-set redundancy in hardware). The flattener
 * computes that byte→class map once and dedups everything keyed by symbol
 * through it: the start dispatch table stores one vector per class, and
 * the dense view stores one accept row per class — up to 256/#classes
 * smaller than the raw table.
 *
 * Storage is span-based: every array lives either in vectors owned by
 * this object (when flattened from an Application) or inside a read-only
 * file mapping owned by the artifact store (when loaded from a compiled
 * blob, see src/store/). The two are indistinguishable to the execution
 * cores — a loaded automaton runs zero-copy straight out of the mapping.
 */

#ifndef SPARSEAP_SIM_FLAT_AUTOMATON_H
#define SPARSEAP_SIM_FLAT_AUTOMATON_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/word_vector.h"
#include "nfa/application.h"

namespace sparseap {

class HotDfa;

/** Immutable flattened automaton built from a (finalized) Application. */
class FlatAutomaton
{
  public:
    /**
     * Accept-table layout of the dense view. Classes is the default;
     * Raw keeps the uncompressed 256-row table and exists so the
     * benchmarks can measure exactly what the compression buys.
     */
    enum class DenseCompression : uint8_t {
        Classes, ///< one accept row per byte-equivalence class
        Raw,     ///< one accept row per byte (reference layout)
    };

    explicit FlatAutomaton(
        const Application &app,
        DenseCompression compression = DenseCompression::Classes);

    /** Number of states. */
    size_t size() const { return symbols_.size(); }

    const SymbolSet &symbols(GlobalStateId s) const { return symbols_[s]; }

    bool reporting(GlobalStateId s) const { return reporting_[s]; }

    StartKind start(GlobalStateId s) const { return start_[s]; }

    /** Successors of @p s as a contiguous span. */
    std::span<const GlobalStateId>
    successors(GlobalStateId s) const
    {
        return {succ_.data() + succ_begin_[s],
                succ_begin_[s + 1] - succ_begin_[s]};
    }

    /** Always-enabled start states that accept @p symbol. */
    std::span<const GlobalStateId>
    allInputStartsFor(uint8_t symbol) const
    {
        const uint8_t c = class_of_[symbol];
        return {start_table_.data() + start_table_begin_[c],
                start_table_begin_[c + 1] - start_table_begin_[c]};
    }

    /** Start-of-data start states (enabled only for position 0). */
    std::span<const GlobalStateId>
    startOfDataStarts() const
    {
        return sod_starts_;
    }

    /** All always-enabled start states. */
    std::span<const GlobalStateId>
    allInputStarts() const
    {
        return all_input_starts_;
    }

    /**
     * Number of byte-equivalence classes (1..256). Two bytes share a
     * class iff every state's symbol-set treats them identically, so any
     * per-symbol structure collapses to one entry per class.
     */
    size_t symbolClassCount() const { return class_count_; }

    /** Equivalence class of @p symbol (in [0, symbolClassCount())). */
    uint8_t symbolClass(uint8_t symbol) const { return class_of_[symbol]; }

    /** The smallest byte of class @p cls (its representative). */
    uint8_t
    classRepresentative(size_t cls) const
    {
        return class_rep_[cls];
    }

    /** Accept-table layout this automaton was flattened with. */
    DenseCompression compression() const { return compression_; }

    /**
     * Column-major bit-parallel view for the dense execution core. Where
     * the row-major symbols() array answers "which bytes does state s
     * accept", the accept table answers "which states accept byte b" as
     * one ⌈N/64⌉-word row per symbol — the word-AND analogue of the AP
     * row decoder driving all matching STE columns at once. Equivalent
     * byte columns share one physical row (see classOf), so the table
     * holds symbolClassCount() rows instead of 256 unless the automaton
     * was flattened with DenseCompression::Raw.
     */
    struct DenseView
    {
        /** Words per state-set row: ceil(size() / 64). */
        size_t words = 0;
        /**
         * Accept-row stride in words: words rounded up to a multiple of
         * 8 (one cache line), so every row starts 64-byte aligned — the
         * base vector is 64-byte aligned by WordVector's allocator (or
         * the store's section alignment). Padding words are zero.
         */
        size_t stride = 0;
        /** Number of accept rows (#classes, or 256 for Raw). */
        size_t classes = 0;
        /** byte -> accept row translation (identity for Raw). */
        std::array<uint8_t, 256> classOf{};
        /** classes rows x words: bit s of row classOf[b] set iff s
         *  accepts byte b. */
        std::span<const uint64_t> accept;
        /** Reporting states, one row. */
        std::span<const uint64_t> reporting;
        /** Always-enabled (all-input) start states, one row. */
        std::span<const uint64_t> allInputStarts;
        /** Start-of-data start states, one row. */
        std::span<const uint64_t> sodStarts;
        /**
         * Latchable states, one row: non-start non-reporting states
         * with a universal self-loop. Once enabled such a state
         * activates on every later cycle, so the dense core latches it
         * out of the dynamic enabled vector into a permanent set whose
         * successor contribution is ORed in wholesale each cycle —
         * rule-set automata (`.*`-style gaps) otherwise accumulate
         * thousands of these and keep every word of the vector live.
         */
        std::span<const uint64_t> latchable;

        /**
         * Word-level successor CSR: state s's successors, grouped by
         * target word, as (word index, bit mask) pairs in
         * [succBegin[s], succBegin[s+1]). Propagation ORs whole masks
         * instead of setting successor bits one at a time — grid
         * automata put most successors in one or two words. Bits of
         * always-enabled start states are cleared from the masks: the
         * dense core serves those through the start dispatch below, so
         * they never enter the dynamic enabled vector.
         */
        std::span<const uint32_t> succBegin; ///< size()+1 entries
        std::span<const uint32_t> succWordIdx;
        std::span<const uint64_t> succWordMask;

        /**
         * Per-class start dispatch, the dense analogue of the sparse
         * core's per-symbol start table: always-enabled starts that
         * match the symbol activate straight from these lists, so they
         * don't occupy (and don't densify) the dynamic enabled vector —
         * on rule-set automata the thousands of scattered start states
         * would otherwise keep every word live and defeat the
         * hierarchical skip.
         *
         * Two lists per class. *Reporting* starts need exact per-state
         * handling (report emission in state order), so their
         * activations — the nonzero words of (allInputStarts & accept
         * row c & reporting) — are (word index, bit mask) pairs in
         * [startBegin[c], startBegin[c+1]), merged into the sweep. The
         * (overwhelmingly more common) non-reporting starts only exist
         * to enable their successors, and which ones activate is a pure
         * function of the class, so their *pooled successor
         * contribution* — the OR of their successor masks — is
         * precomputed per class in [startSuccBegin[c],
         * startSuccBegin[c+1]) and ORed into the next vector wholesale,
         * replacing per-bit CSR propagation from every matching start
         * on every cycle.
         */
        std::span<const uint32_t> startBegin; ///< classes+1 entries
        std::span<const uint32_t> startWordIdx;
        std::span<const uint64_t> startWordMask;
        std::span<const uint32_t> startSuccBegin; ///< classes+1 entries
        std::span<const uint32_t> startSuccWordIdx;
        std::span<const uint64_t> startSuccWordMask;

        /**
         * Chain states, one row (derived from the successor CSR at
         * view construction, never stored): bit s set iff state s's
         * successor contribution is exactly bit s+1. Glushkov position
         * automata built from literal-heavy rule sets are ~90% such
         * states, so the dense core propagates them all at once with a
         * single cross-word left-shift-and-OR of the activation vector
         * (simd::Ops::shiftOrInto) and walks the CSR only for the
         * remaining fan-out states. A chain state's bit 63 never sits
         * in the last word: s+1 would be out of range, so the state
         * could not have it as its successor.
         */
        std::span<const uint64_t> chain;

        /**
         * Fan-out states, one row (derived like chain, never stored):
         * reporting states plus non-chain states with a nonempty
         * successor CSR — exactly the states whose activation needs
         * handling bit by bit once the chain shift has run. The dense
         * core's flat sweep ANDs the activation vector with this row
         * and visits only the nonzero words of the result, so a cycle
         * with a hundred live chain bits and one fan-out activation
         * walks one word instead of every word with an activation.
         */
        std::span<const uint64_t> fanout;

        /**
         * Dense start-dispatch rows (derived, never stored): classes
         * whose pooled successor contribution covers at least 1/8 of
         * the vector get their startSucc list materialized as one full
         * row, ORed in with a single vector sweep instead of hundreds
         * of scattered read-modify-writes. startNextRow[c] is the row
         * number + 1, or 0 when class c stays on the sparse list (the
         * gate keeps wide-alphabet automata from materializing big
         * tables of near-empty rows).
         */
        std::span<const uint32_t> startNextRow; ///< classes entries
        std::span<const uint64_t> startNextRows; ///< rows x stride

        /**
         * Quiescent-configuration scan set, 256 bits: byte b is
         * "interesting" iff its class has a nonempty reporting-start
         * dispatch list or a nonempty pooled start-successor
         * contribution — i.e. stepping on b from the all-idle
         * configuration (no dynamic state enabled, no permanents
         * latched) could change the configuration or emit a report.
         * The dense core scans the input for the next such byte
         * (simd::Ops::scanForByteMask) whenever it detects quiescence
         * and jumps the cursor — the software form of the paper's SpAP
         * jump operation, applied in the input dimension. Persisted as
         * a store v3 section; recomputed from the dispatch CSRs when
         * absent. Configurations with latched permanents need a wider
         * mask, which DenseCore derives at run time from this one.
         */
        std::array<uint64_t, 4> staticScan{};

        /** Row stride (words) that keeps rows cache-line aligned. */
        static size_t
        strideFor(size_t words)
        {
            return (words + 7) & ~static_cast<size_t>(7);
        }

        const uint64_t *
        acceptRow(uint8_t symbol) const
        {
            return accept.data() +
                   static_cast<size_t>(classOf[symbol]) * stride;
        }

        /** Accept-table bytes actually stored (rows + translation). */
        size_t
        acceptBytes() const
        {
            return classes * stride * sizeof(uint64_t) + sizeof(classOf);
        }

        /** Accept-table bytes of the uncompressed 256-row layout. */
        size_t
        rawAcceptBytes() const
        {
            return 256 * stride * sizeof(uint64_t);
        }

        /**
         * Backing storage when the view was built in-process; unused
         * (all spans alias the store mapping) for loaded automata.
         * Internal — consumers go through the spans above.
         */
        struct Owned
        {
            WordVector accept;
            WordVector reporting;
            WordVector allInputStarts;
            WordVector sodStarts;
            WordVector latchable;
            std::vector<uint32_t> succBegin;
            std::vector<uint32_t> succWordIdx;
            WordVector succWordMask;
            std::vector<uint32_t> startBegin;
            std::vector<uint32_t> startWordIdx;
            WordVector startWordMask;
            std::vector<uint32_t> startSuccBegin;
            std::vector<uint32_t> startSuccWordIdx;
            WordVector startSuccWordMask;
            /** Derived arrays (chain / fanout / startNext*) are owned
             *  in BOTH construction paths — they are computed from the
             *  CSR at view-install time, never read from a store
             *  mapping. */
            WordVector chain;
            WordVector fanout;
            std::vector<uint32_t> startNextRow;
            WordVector startNextRows;
        };
        Owned owned;
    };

    /** Dense view, built on first use (thread-safe, then immutable). */
    const DenseView &denseView() const;

    /**
     * Hot-set DFA (sim/hot_dfa.h), determinized on first call under the
     * SPARSEAP_DFA_STATES / SPARSEAP_DFA_TABLE_KB budgets. Exactly one
     * construction attempt per automaton: the result — including a null
     * from a budget bailout — is cached, so callers can retry cheaply.
     */
    std::shared_ptr<const HotDfa> ensureHotDfa() const;

    /** The hot DFA if already built/attached; null otherwise (never
     *  triggers construction — cheap enough for per-run probing). */
    std::shared_ptr<const HotDfa> hotDfaIfBuilt() const;

    /**
     * Install a DFA decoded from a store blob, claiming the one
     * construction slot so warm starts skip determinization entirely.
     * A no-op when a DFA was already built or attached.
     */
    void attachHotDfa(std::shared_ptr<const HotDfa> dfa) const;

    /**
     * Flat snapshot of every array of this automaton *and* its dense
     * view, for the artifact store codec (src/store/artifact.h). The
     * dense view is materialized as a side effect — a stored automaton
     * always carries it so loads never rebuild it.
     */
    struct Parts
    {
        DenseCompression compression = DenseCompression::Classes;
        uint32_t classCount = 1;
        std::span<const uint8_t> classOf; ///< 256 entries
        std::span<const uint8_t> classRep;
        std::span<const SymbolSet> symbols;
        std::span<const uint8_t> reporting;
        std::span<const StartKind> start;
        std::span<const uint32_t> succBegin;
        std::span<const GlobalStateId> succ;
        std::span<const uint32_t> startTableBegin;
        std::span<const GlobalStateId> startTable;
        std::span<const GlobalStateId> sodStarts;
        std::span<const GlobalStateId> allInputStarts;

        struct Dense
        {
            uint64_t words = 0;
            uint64_t classes = 0;
            std::span<const uint8_t> classOf; ///< 256 entries
            std::span<const uint64_t> accept;
            std::span<const uint64_t> reporting;
            std::span<const uint64_t> allInputStarts;
            std::span<const uint64_t> sodStarts;
            std::span<const uint64_t> latchable;
            std::span<const uint32_t> succBegin;
            std::span<const uint32_t> succWordIdx;
            std::span<const uint64_t> succWordMask;
            std::span<const uint32_t> startBegin;
            std::span<const uint32_t> startWordIdx;
            std::span<const uint64_t> startWordMask;
            std::span<const uint32_t> startSuccBegin;
            std::span<const uint32_t> startSuccWordIdx;
            std::span<const uint64_t> startSuccWordMask;
            /** Quiescent scan set (4 words); empty when decoded from a
             *  pre-v3 blob — the view recomputes it then. */
            std::span<const uint64_t> scanMask;
        } dense;

        /** Keeps the spans' storage alive (a store mapping). */
        std::shared_ptr<const void> backing;
    };

    /** Snapshot this automaton's arrays (see Parts). */
    Parts parts() const;

    /**
     * Zero-copy construction from decoded artifact parts: every span is
     * adopted as-is (typically aliasing a read-only store mapping kept
     * alive by parts.backing) and the dense view is installed
     * immediately. The store codec validates structural consistency
     * before calling this; blob checksums guarantee the bytes are
     * exactly what an in-process flattening wrote.
     */
    explicit FlatAutomaton(const Parts &parts);

  private:
    void computeSymbolClasses();

    /** Owned backing when built from an Application (see file comment). */
    struct Owned
    {
        std::vector<SymbolSet> symbols;
        std::vector<uint8_t> reporting;
        std::vector<StartKind> start;
        std::vector<uint32_t> succ_begin;
        std::vector<GlobalStateId> succ;
        std::vector<uint32_t> start_table_begin;
        std::vector<GlobalStateId> start_table;
        std::vector<GlobalStateId> sod_starts;
        std::vector<GlobalStateId> all_input_starts;
        std::vector<uint8_t> class_rep;
    };
    Owned owned_;
    /** Keeps a store mapping alive for span-backed instances. */
    std::shared_ptr<const void> backing_;

    std::span<const SymbolSet> symbols_;
    std::span<const uint8_t> reporting_; // bool, stored flat
    std::span<const StartKind> start_;
    std::span<const uint32_t> succ_begin_; // size() + 1 entries (CSR)
    std::span<const GlobalStateId> succ_;
    /** Start dispatch CSR: one [begin, end) row per byte class. */
    std::span<const uint32_t> start_table_begin_;
    std::span<const GlobalStateId> start_table_;
    std::span<const GlobalStateId> sod_starts_;
    std::span<const GlobalStateId> all_input_starts_;
    std::span<const uint8_t> class_rep_;

    DenseCompression compression_;
    std::array<uint8_t, 256> class_of_{};
    size_t class_count_ = 1;

    mutable std::once_flag dense_once_;
    mutable std::unique_ptr<DenseView> dense_;

    /** One-shot hot-DFA slot: dfa_ready_ (acquire/release) publishes
     *  hot_dfa_, which may be null after a budget bailout. */
    mutable std::once_flag dfa_once_;
    mutable std::shared_ptr<const HotDfa> hot_dfa_;
    mutable std::atomic<bool> dfa_ready_{false};
};

} // namespace sparseap

#endif // SPARSEAP_SIM_FLAT_AUTOMATON_H
