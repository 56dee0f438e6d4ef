/**
 * @file
 * Capped subset-construction determinization of a (hot) FlatAutomaton.
 *
 * The dense core pays O(live words) per symbol; for the small,
 * frequently-enabled hot partition the profiler identifies, even that is
 * more work than a DFA's single table lookup. This pass determinizes the
 * automaton over its byte-equivalence classes: a DFA state is an
 * *activated* set — the NFA states that fired on the current symbol —
 * which makes both the transition and the reports a pure function of the
 * state:
 *
 *   D' = (succ(D) ∪ allInputStarts) ∩ acceptRow(class)
 *   reports(D) = D ∩ reporting        (emitted in ascending state id)
 *
 * State 0 is the pre-input configuration (enabled = start-of-data
 * starts; it emits nothing and is excluded from the dedup map since its
 * enabled set is seeded, not derived from an activated set). Latching
 * needs no special handling: a universal self-loop state that enters an
 * activated set re-enters it on every later symbol by construction.
 *
 * Construction is a plain BFS expanding classes in ascending order, so
 * state numbering — and therefore the encoded artifact — is
 * deterministic. The pass *bails out* (returns null) the moment the
 * state count or the transition-table bytes exceed the caps
 * (SPARSEAP_DFA_STATES / SPARSEAP_DFA_TABLE_KB): subset construction is
 * exponential in the worst case, and the NFA dense core is always a
 * correct fallback.
 *
 * Stepping is then:
 *
 *   state = table[state * classes + classOf[symbol]]
 *   for id in reports(state): emit (position, id)
 *
 * Like FlatAutomaton, storage is span-based: built in-process the arrays
 * live in owned vectors; decoded from a store blob they alias the
 * read-only file mapping (see src/store/artifact.h).
 */

#ifndef SPARSEAP_SIM_HOT_DFA_H
#define SPARSEAP_SIM_HOT_DFA_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/vec.h"
#include "sim/flat_automaton.h"

namespace sparseap {

/** Immutable symbol-class-indexed DFA over one FlatAutomaton. */
class HotDfa
{
  public:
    /** Construction caps; build() bails out (returns null) beyond. */
    struct Limits
    {
        /** Maximum DFA states. */
        size_t stateBudget = 2048;
        /**
         * Maximum transition-table bytes (states * classes * 4). The
         * same cap bounds the activated sets the construction holds
         * (states * NFA words * 8), so a large automaton bails after a
         * few states instead of after stateBudget huge ones.
         */
        size_t tableBytes = 4096 * 1024;

        /** Caps from SPARSEAP_DFA_STATES / SPARSEAP_DFA_TABLE_KB. */
        static Limits fromOptions();
    };

    /**
     * Determinize @p fa under @p limits.
     * @return the DFA, or null when a budget was exceeded.
     */
    static std::shared_ptr<const HotDfa>
    build(const FlatAutomaton &fa, const Limits &limits);

    /** Number of DFA states (>= 1; state 0 is the start state). */
    size_t states() const { return states_; }

    /** Transition-table columns (the automaton's symbol classes). */
    size_t classes() const { return classes_; }

    /** Transition-table bytes (the budget-relevant footprint). */
    size_t
    tableBytes() const
    {
        return table_.size() * sizeof(uint32_t);
    }

    /** Total report-list entries across all states. */
    size_t reportCount() const { return report_ids_.size(); }

    /** Successor state on @p symbol. */
    uint32_t
    next(uint32_t state, uint8_t symbol) const
    {
        return table_[static_cast<size_t>(state) * classes_ +
                      class_of_[symbol]];
    }

    /** NFA reporting states active in @p state, ascending id. */
    std::span<const GlobalStateId>
    reportsOf(uint32_t state) const
    {
        return {report_ids_.data() + report_begin_[state],
                report_begin_[state + 1] - report_begin_[state]};
    }

    /**
     * Per-state input-skip mask, or null when @p state is not
     * skippable. A state is skippable when it emits no reports and
     * self-loops on at least 32 byte values; the mask then holds its
     * *interesting* bytes — those whose transition leaves the state —
     * so while the DFA sits in it, the driver may scan the input
     * (simd::Ops::scanForByteMask) and jump straight to the next byte
     * that moves the machine. Precomputed for every state from the
     * transition table (256 probes per state), persisted as store v3
     * sections, rebuilt when attaching a pre-v3 blob.
     */
    const simd::ScanMask *
    skipMask(uint32_t state) const
    {
        const uint32_t i = skip_index_[state];
        return i == 0 ? nullptr : &skip_masks_[i - 1];
    }

    /** True iff any state has a skip mask (hoist out of the loop). */
    bool anySkippable() const { return !skip_masks_.empty(); }

    /** Number of states with a skip mask. */
    size_t skippableStates() const { return skip_masks_.size(); }

    /**
     * Flat snapshot for the artifact store codec. The byte→class map is
     * not part of it — it is the automaton's own, already stored with
     * the FlatAutomaton sections.
     */
    struct Parts
    {
        uint64_t states = 0;
        uint64_t classes = 0;
        std::span<const uint32_t> table;       ///< states * classes
        std::span<const uint32_t> reportBegin; ///< states + 1
        std::span<const GlobalStateId> reportIds;
        /**
         * Input-skip sections (store v3): skipIndex has one entry per
         * state (0 = not skippable, else 1 + mask number) and skipBits
         * four words per mask (the raw 256-bit interesting-byte sets —
         * the shuffle nibble tables are derived at attach). Empty when
         * decoded from a pre-v3 blob; fromParts recomputes them then.
         */
        std::span<const uint32_t> skipIndex;
        std::span<const uint64_t> skipBits;
        /** Keeps the spans' storage alive (a store mapping). */
        std::shared_ptr<const void> backing;
    };

    Parts parts() const;

    /**
     * Zero-copy construction from decoded parts; the byte→class map is
     * taken from @p fa (the automaton the DFA was built from). The
     * store codec validates structural consistency before calling this.
     */
    static std::shared_ptr<const HotDfa> fromParts(const Parts &parts,
                                                   const FlatAutomaton &fa);

  private:
    HotDfa() = default;

    /** Fill owned_.skipIndex/skipBits from the transition table. */
    void buildSkipTables();
    /** Derive the prepared scan masks from the skip_bits_ span. */
    void deriveSkipMasks();

    size_t states_ = 0;
    size_t classes_ = 0;
    std::array<uint8_t, 256> class_of_{};

    std::span<const uint32_t> table_;
    std::span<const uint32_t> report_begin_;
    std::span<const GlobalStateId> report_ids_;
    std::span<const uint32_t> skip_index_; ///< states entries
    std::span<const uint64_t> skip_bits_;  ///< 4 words per mask
    /** Prepared scan masks (derived from skip_bits_, never stored). */
    std::vector<simd::ScanMask> skip_masks_;

    struct Owned
    {
        std::vector<uint32_t> table;
        std::vector<uint32_t> reportBegin;
        std::vector<GlobalStateId> reportIds;
        std::vector<uint32_t> skipIndex;
        std::vector<uint64_t> skipBits;
    };
    Owned owned_;
    std::shared_ptr<const void> backing_;
};

} // namespace sparseap

#endif // SPARSEAP_SIM_HOT_DFA_H
