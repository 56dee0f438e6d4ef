#include "sim/dense_core.h"

#include <algorithm>
#include <array>

#include "common/options.h"

namespace sparseap {

namespace {

inline void
markWord(uint64_t *sum, uint64_t *sum2, size_t w)
{
    sum[w >> 6] |= 1ull << (w & 63);
    sum2[w >> 12] |= 1ull << ((w >> 6) & 63);
}

} // namespace

DenseCore::DenseCore(const FlatAutomaton &fa)
    : fa_(fa), dv_(fa.denseView()), ops_(&simd::ops()),
      skip_divisor_(globalOptions().skipDivisor), words_(dv_.words),
      sum_words_(wordsForBits(words_)),
      sum2_words_(wordsForBits(sum_words_)),
      has_starts_(!fa.allInputStarts().empty()),
      has_latchable_(std::any_of(dv_.latchable.begin(),
                                 dv_.latchable.end(),
                                 [](uint64_t w) { return w != 0; })),
      has_chain_(std::any_of(dv_.chain.begin(), dv_.chain.end(),
                             [](uint64_t w) { return w != 0; })),
      enabled_(words_, 0), enabled_sum_(sum_words_, 0),
      enabled_sum2_(sum2_words_, 0), next_(words_, 0),
      next_sum_(sum_words_, 0), next_sum2_(sum2_words_, 0),
      active_(words_, 0), active_sum_(sum_words_, 0),
      scratch_(words_, 0), perm_(words_, 0),
      perm_next_(words_, 0), perm_next_sum_(sum_words_, 0)
{
    if (globalOptions().inputSkip) {
        static_scan_ = simd::ScanMask::fromBits(dv_.staticScan.data());
        static_scan_ok_ =
            static_scan_.population() <= kMaxScanPopulation;
    }
}

void
DenseCore::reset(bool install_starts)
{
    ops_->clear(enabled_.data(), words_);
    ops_->clear(enabled_sum_.data(), sum_words_);
    ops_->clear(enabled_sum2_.data(), sum2_words_);
    ops_->clear(next_.data(), words_);
    ops_->clear(next_sum_.data(), sum_words_);
    ops_->clear(next_sum2_.data(), sum2_words_);
    if (has_perm_) {
        ops_->clear(perm_.data(), words_);
        ops_->clear(perm_next_.data(), words_);
        ops_->clear(perm_next_sum_.data(), sum_words_);
        has_perm_ = false;
        ++perm_gen_; // any cached dynamic scan mask is stale now
    }
    stats_ = StepStats{};
    if (!install_starts)
        return;
    // Only start-of-data starts enter the dynamic vector; always-enabled
    // starts are served from the per-class dispatch on every cycle (they
    // are a property of the automaton, not of the reset: a mid-run
    // handover resets without reinstalling position-0 starts but still
    // needs the dispatch live).
    for (size_t w = 0; w < words_; ++w) {
        const uint64_t v = dv_.sodStarts[w];
        if (v != 0) {
            enabled_[w] = v;
            markWord(enabled_sum_.data(), enabled_sum2_.data(), w);
        }
    }
}

void
DenseCore::seed(std::span<const GlobalStateId> states)
{
    for (GlobalStateId s : states) {
        if (has_starts_ && testWordBit(dv_.allInputStarts.data(), s))
            continue; // implicitly enabled via the start dispatch
        setWordBit(enabled_.data(), s);
        markWord(enabled_sum_.data(), enabled_sum2_.data(), s >> 6);
    }
}

void
DenseCore::snapshotEnabled(std::vector<GlobalStateId> *out) const
{
    for (size_t w = 0; w < words_; ++w) {
        uint64_t bits = enabled_[w] | (has_perm_ ? perm_[w] : 0);
        while (bits != 0) {
            out->push_back(static_cast<GlobalStateId>(
                w * 64 + static_cast<unsigned>(__builtin_ctzll(bits))));
            bits &= bits - 1;
        }
    }
}

bool
DenseCore::idle() const
{
    if (has_starts_ || has_perm_)
        return false; // starts and latched states always activate
    for (uint64_t w : enabled_sum2_)
        if (w != 0)
            return false;
    return true;
}

/**
 * True iff the configuration is quiescent: the dynamic enabled set is
 * exactly the latched states' pooled successor contribution, so (until
 * an interesting byte arrives, see trySkip) every step reproduces it.
 * Both vectors are walked through the union of their summaries —
 * enabled_sum_ is exact, perm_next_sum_ a superset, and comparing the
 * actual words handles both. With nothing latched this reduces to "the
 * dynamic set is empty".
 */
bool
DenseCore::quiescent() const
{
    for (size_t sw = 0; sw < sum_words_; ++sw) {
        uint64_t bits = enabled_sum_[sw] | perm_next_sum_[sw];
        while (bits != 0) {
            const size_t w =
                sw * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if (enabled_[w] != perm_next_[w])
                return false;
        }
    }
    return true;
}

/**
 * Rebuild the dynamic scan mask for the current latch set. From a
 * quiescent configuration, a byte of class c is boring — stepping on
 * it emits nothing and leaves the configuration bit-identical — iff
 *  (a) no currently-enabled (latched-successor) state accepts c, so
 *      there are no activations, reports, or CSR propagation;
 *  (b) c dispatches no reporting start; and
 *  (c) c's pooled start-successor contribution is covered by
 *      perm_ ∪ perm_next_ (latch maintenance strips the perm_ bits —
 *      permanent states are latchable by construction — and the rest
 *      is already enabled).
 * Everything else is interesting. Folded through the byte→class map
 * into a 256-bit mask and cached until the next latch or reset.
 */
void
DenseCore::buildDynamicScanMask()
{
    dyn_scan_gen_ = perm_gen_;
    std::array<uint8_t, 256> interesting{};
    for (size_t c = 0; c < dv_.classes; ++c) {
        bool hot = dv_.startBegin[c + 1] > dv_.startBegin[c];
        if (!hot) {
            const uint64_t *row = dv_.accept.data() + c * dv_.stride;
            for (size_t sw = 0; sw < sum_words_ && !hot; ++sw) {
                uint64_t bits = perm_next_sum_[sw];
                while (bits != 0) {
                    const size_t w =
                        sw * 64 +
                        static_cast<unsigned>(__builtin_ctzll(bits));
                    bits &= bits - 1;
                    if ((perm_next_[w] & row[w]) != 0) {
                        hot = true;
                        break;
                    }
                }
            }
        }
        if (!hot) {
            for (uint32_t k = dv_.startSuccBegin[c];
                 k < dv_.startSuccBegin[c + 1]; ++k) {
                const uint32_t w = dv_.startSuccWordIdx[k];
                if ((dv_.startSuccWordMask[k] &
                     ~(perm_[w] | perm_next_[w])) != 0) {
                    hot = true;
                    break;
                }
            }
        }
        interesting[c] = hot ? 1 : 0;
    }
    uint64_t bits[4] = {0, 0, 0, 0};
    for (unsigned b = 0; b < 256; ++b)
        if (interesting[dv_.classOf[b]])
            bits[b >> 6] |= 1ull << (b & 63);
    dyn_scan_ = simd::ScanMask::fromBits(bits);
    dyn_scan_ok_ = dyn_scan_.population() <= kMaxScanPopulation;
}

size_t
DenseCore::trySkip(const uint8_t *data, size_t n)
{
    // Cheapest checks first: mask availability, then the current byte
    // (interesting almost always in high-activity regimes), then the
    // configuration walk, and only then the vector scan.
    const simd::ScanMask *m;
    if (!has_perm_) {
        if (!static_scan_ok_)
            return 0;
        m = &static_scan_;
    } else {
        if (!static_scan_ok_)
            return 0; // latching only widens the mask; don't rebuild
        if (dyn_scan_gen_ != perm_gen_)
            buildDynamicScanMask();
        if (!dyn_scan_ok_)
            return 0;
        m = &dyn_scan_;
    }
    if (n == 0 || m->test(data[0]))
        return 0;
    if (!quiescent())
        return 0;
    const size_t skipped = ops_->scanForByteMask(data, n, *m);
    stats_.skippedSymbols += skipped;
    if (skipped != 0)
        ++stats_.jumps;
    return skipped;
}

/** OR the pooled successor contribution of all latched states into
 *  next_, visiting only its (superset-summarized) nonzero words. */
void
DenseCore::orPermanentsIntoNext(bool mark)
{
    uint64_t *next = next_.data();
    const uint64_t *pn = perm_next_.data();
    for (size_t sw = 0; sw < sum_words_; ++sw) {
        uint64_t bits = perm_next_sum_[sw];
        while (bits != 0) {
            const size_t w =
                sw * 64 + static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            const uint64_t v = pn[w];
            if (v != 0) {
                next[w] |= v;
                if (mark)
                    markWord(next_sum_.data(), next_sum2_.data(), w);
            }
        }
    }
}

/**
 * Latch-maintain one word of next_: latch fresh latchable bits and
 * return the word with every latchable bit (now all permanent) removed
 * from the dynamic vector.
 */
uint64_t
DenseCore::latchWord(size_t w, uint64_t v)
{
    const uint64_t lat = v & dv_.latchable[w];
    if (lat == 0)
        return v;
    const uint64_t fresh = lat & ~perm_[w];
    if (fresh != 0)
        latch(w, fresh);
    return v & ~lat;
}

/** Move the @p fresh states of word @p w into the permanent set and
 *  pool their successor masks into perm_next_ (disjoint from perm_). */
void
DenseCore::latch(size_t w, uint64_t fresh)
{
    has_perm_ = true;
    ++perm_gen_;
    perm_[w] |= fresh;
    const uint32_t *begin = dv_.succBegin.data();
    const uint32_t *idx = dv_.succWordIdx.data();
    const uint64_t *mask = dv_.succWordMask.data();
    uint64_t bits = fresh;
    while (bits != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
        const auto s = static_cast<GlobalStateId>(w * 64 + b);
        for (uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
            const uint32_t tw = idx[k];
            const uint64_t m = mask[k] & ~perm_[tw];
            if (m != 0) {
                perm_next_[tw] |= m;
                setWordBit(perm_next_sum_.data(), tw);
            }
        }
        bits &= bits - 1;
    }
    // The states themselves are permanent now: no contribution may
    // re-enter them into the dynamic vector.
    perm_next_[w] &= ~fresh;
}

void
DenseCore::clearNext()
{
    // next_ holds the *previous* cycle's enabled set (swapped out at the
    // end of step); its summaries name exactly the dirty words, so the
    // wipe costs O(previously live words), not O(N/64).
    for (size_t sw2 = 0; sw2 < sum2_words_; ++sw2) {
        uint64_t b2 = next_sum2_[sw2];
        next_sum2_[sw2] = 0;
        while (b2 != 0) {
            const size_t sw =
                sw2 * 64 +
                static_cast<unsigned>(__builtin_ctzll(b2));
            b2 &= b2 - 1;
            uint64_t b1 = next_sum_[sw];
            next_sum_[sw] = 0;
            while (b1 != 0) {
                next_[sw * 64 +
                      static_cast<unsigned>(__builtin_ctzll(b1))] = 0;
                b1 &= b1 - 1;
            }
        }
    }
}

void
DenseCore::step(uint8_t symbol, uint64_t position, ReportList *reports)
{
    const uint64_t *accept = dv_.acceptRow(symbol);

    const uint8_t cls = dv_.classOf[symbol];
    uint32_t sk = 0;
    uint32_t s_end = 0;
    uint32_t ssk = 0;
    uint32_t ss_end = 0;
    if (has_starts_) {
        sk = dv_.startBegin[cls];
        s_end = dv_.startBegin[cls + 1];
        ssk = dv_.startSuccBegin[cls];
        ss_end = dv_.startSuccBegin[cls + 1];
    }

    // Pick the path per cycle: count live words (dynamic, via a popcount
    // of the level-1 summary, plus the symbol's start-dispatch entries)
    // and skip only while they are a small fraction of the vector.
    size_t live = (s_end - sk) + (ss_end - ssk);
    live += static_cast<size_t>(
        ops_->popcount(enabled_sum_.data(), sum_words_));

    ++stats_.cycles;
    stats_.liveWords += live;

    if (live * skip_divisor_ < words_) {
        ++stats_.skipCycles;
        stepSkip(accept, sk, s_end, ssk, ss_end, position, reports);
    } else {
        stepFlat(accept, cls, sk, s_end, ssk, ss_end, position, reports);
    }

    enabled_.swap(next_);
    enabled_sum_.swap(next_sum_);
    enabled_sum2_.swap(next_sum2_);
}

void
DenseCore::stepSkip(const uint64_t *accept, uint32_t sk, uint32_t s_end,
                    uint32_t ssk, uint32_t ss_end, uint64_t position,
                    ReportList *reports)
{
    const uint32_t *begin = dv_.succBegin.data();
    const uint32_t *idx = dv_.succWordIdx.data();
    const uint64_t *mask = dv_.succWordMask.data();
    const uint32_t *s_idx = dv_.startWordIdx.data();
    const uint64_t *s_mask = dv_.startWordMask.data();

    clearNext();

    uint64_t *next = next_.data();
    uint64_t *next_sum = next_sum_.data();
    uint64_t *next_sum2 = next_sum2_.data();

    // Matching non-reporting starts enable their successors wholesale
    // from the per-class pooled contribution — no per-bit propagation.
    for (uint32_t k = ssk; k < ss_end; ++k) {
        const uint32_t w = dv_.startSuccWordIdx[k];
        next[w] |= dv_.startSuccWordMask[k];
        markWord(next_sum, next_sum2, w);
    }

    // Process one live word's activations: report, then propagate.
    auto sweepWord = [&](size_t w, uint64_t act) {
        if (reports) {
            uint64_t hits = act & dv_.reporting[w];
            while (hits != 0) {
                const unsigned b =
                    static_cast<unsigned>(__builtin_ctzll(hits));
                reports->push_back(
                    {position, static_cast<GlobalStateId>(w * 64 + b)});
                hits &= hits - 1;
            }
        }
        // Chain states (successor exactly {s+1}) propagate with one
        // word-local shift; bit 63 carries into w+1, which is in range
        // whenever it is a chain bit (see DenseView::chain).
        const uint64_t ch = act & dv_.chain[w];
        if (ch != 0) {
            const uint64_t lo = ch << 1;
            if (lo != 0) {
                next[w] |= lo;
                markWord(next_sum, next_sum2, w);
            }
            if (ch >> 63) {
                next[w + 1] |= 1;
                markWord(next_sum, next_sum2, w + 1);
            }
            act &= ~ch;
        }
        while (act != 0) {
            const unsigned b =
                static_cast<unsigned>(__builtin_ctzll(act));
            const auto s = static_cast<GlobalStateId>(w * 64 + b);
            for (uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
                const uint32_t tw = idx[k];
                next[tw] |= mask[k];
                markWord(next_sum, next_sum2, tw);
            }
            act &= act - 1;
        }
    };

    // Start-dispatch entries strictly below word @p w (they are stored
    // in ascending word order per class, disjoint from the dynamic
    // vector, and already intersected with the accept row).
    auto flushStartsBelow = [&](size_t w) {
        while (sk < s_end && s_idx[sk] < w) {
            sweepWord(s_idx[sk], s_mask[sk]);
            ++sk;
        }
    };

    // Hierarchical sweep in ascending word order: level-2 bits name live
    // summary words, summary bits name live enabled words, and the
    // symbol's start-dispatch list is merged in so reports still come
    // out in exact state order. Dead regions cost one word test per
    // 4096 states.
    for (size_t sw2 = 0; sw2 < sum2_words_; ++sw2) {
        uint64_t b2 = enabled_sum2_[sw2];
        while (b2 != 0) {
            const size_t sw =
                sw2 * 64 +
                static_cast<unsigned>(__builtin_ctzll(b2));
            b2 &= b2 - 1;
            const uint64_t b1 = enabled_sum_[sw];
            const size_t base = sw * 64;
            if (b1 == ~0ull && base + 64 <= words_) {
                // Fully live block: one vector AND sweep, then scan the
                // nonzero activations.
                flushStartsBelow(base);
                alignas(64) uint64_t act[64];
                ops_->bitAnd(act, enabled_.data() + base, accept + base,
                             64);
                while (sk < s_end && s_idx[sk] < base + 64) {
                    act[s_idx[sk] - base] |= s_mask[sk];
                    ++sk;
                }
                for (size_t j = 0; j < 64; ++j) {
                    if (act[j] != 0)
                        sweepWord(base + j, act[j]);
                }
            } else {
                uint64_t bits = b1;
                while (bits != 0) {
                    const size_t w =
                        base +
                        static_cast<unsigned>(__builtin_ctzll(bits));
                    bits &= bits - 1;
                    flushStartsBelow(w);
                    uint64_t act = enabled_[w] & accept[w];
                    if (sk < s_end && s_idx[sk] == w) {
                        act |= s_mask[sk];
                        ++sk;
                    }
                    if (act != 0)
                        sweepWord(w, act);
                }
            }
        }
    }
    flushStartsBelow(words_);

    // Latched states activate on every symbol: OR their pooled successor
    // contribution, then latch any freshly enabled universal self-loop
    // states out of the dynamic vector (the next summary names a
    // superset of the live words).
    if (has_perm_)
        orPermanentsIntoNext(/*mark=*/true);
    if (has_latchable_) {
        for (size_t sw2 = 0; sw2 < sum2_words_; ++sw2) {
            uint64_t b2 = next_sum2_[sw2];
            while (b2 != 0) {
                const size_t sw =
                    sw2 * 64 +
                    static_cast<unsigned>(__builtin_ctzll(b2));
                b2 &= b2 - 1;
                uint64_t b1 = next_sum_[sw];
                while (b1 != 0) {
                    const size_t w =
                        sw * 64 +
                        static_cast<unsigned>(__builtin_ctzll(b1));
                    b1 &= b1 - 1;
                    const uint64_t v = next[w];
                    if (v != 0)
                        next[w] = latchWord(w, v);
                }
            }
        }
    }
}

void
DenseCore::stepFlat(const uint64_t *accept, uint8_t cls, uint32_t sk,
                    uint32_t s_end, uint32_t ssk, uint32_t ss_end,
                    uint64_t position, ReportList *reports)
{
    const uint32_t *begin = dv_.succBegin.data();
    const uint32_t *idx = dv_.succWordIdx.data();
    const uint64_t *mask = dv_.succWordMask.data();
    const uint32_t *s_idx = dv_.startWordIdx.data();
    const uint64_t *s_mask = dv_.startWordMask.data();
    const uint64_t *chain = dv_.chain.data();

    uint64_t *next = next_.data();
    ops_->clear(next, words_);

    uint64_t *act = active_.data();
    ops_->bitAnd(act, enabled_.data(), accept, words_);
    // Reporting starts join the activation vector (per-bit handling for
    // state-ordered reports); non-reporting starts contribute their
    // pooled successors directly.
    for (uint32_t k = sk; k < s_end; ++k)
        act[s_idx[k]] |= s_mask[k];

    // Chain states — the ~90% whose successor is exactly {s+1} — all
    // propagate at once: one cross-word shift-and-OR of the chain slice
    // of the activation vector. Only the fan-out remainder walks the
    // CSR per bit below.
    if (has_chain_) {
        uint64_t *ch = scratch_.data();
        ops_->bitAnd(ch, act, chain, words_);
        ops_->shiftOrInto(next, ch, words_);
    }

    // Matching non-reporting starts: a vector OR of the materialized
    // row when this class's pooled contribution is dense, the sparse
    // entry list otherwise.
    if (ss_end > ssk) {
        const uint32_t row =
            dv_.startNextRow.empty() ? 0 : dv_.startNextRow[cls];
        if (row != 0)
            ops_->orInto(next,
                         dv_.startNextRows.data() +
                             static_cast<size_t>(row - 1) * dv_.stride,
                         words_);
        else
            for (uint32_t k = ssk; k < ss_end; ++k)
                next[dv_.startSuccWordIdx[k]] |=
                    dv_.startSuccWordMask[k];
    }

    // What is left needs handling bit by bit: reports and fan-out CSR
    // walks. One AND with the fan-out row drops the chain activations
    // the shift already propagated (and the successor-less states), and
    // the sweep visits only the nonzero words of what remains, in
    // ascending order so reports stay in state order.
    ops_->bitAnd(act, act, dv_.fanout.data(), words_);
    uint64_t *act_sum = active_sum_.data();
    ops_->nonzeroWords(act_sum, act, words_);
    for (size_t sw = 0; sw < sum_words_; ++sw) {
        uint64_t live = act_sum[sw];
        while (live != 0) {
            const size_t w =
                sw * 64 + static_cast<unsigned>(__builtin_ctzll(live));
            live &= live - 1;
            uint64_t a = act[w];
            if (reports) {
                uint64_t hits = a & dv_.reporting[w];
                while (hits != 0) {
                    const unsigned b =
                        static_cast<unsigned>(__builtin_ctzll(hits));
                    reports->push_back(
                        {position, static_cast<GlobalStateId>(w * 64 + b)});
                    hits &= hits - 1;
                }
            }
            a &= ~chain[w];
            while (a != 0) {
                const unsigned b =
                    static_cast<unsigned>(__builtin_ctzll(a));
                const auto s = static_cast<GlobalStateId>(w * 64 + b);
                for (uint32_t k = begin[s]; k < begin[s + 1]; ++k)
                    next[idx[k]] |= mask[k];
                a &= a - 1;
            }
        }
    }

    // OR the latched states' pooled contribution — wholesale when it is
    // dense (the usual flat-regime case), via its summary walk when a
    // few latched words would be drowned by a full sweep.
    if (has_perm_) {
        const uint64_t live =
            ops_->popcount(perm_next_sum_.data(), sum_words_);
        if (live * skip_divisor_ >= words_)
            ops_->orInto(next, perm_next_.data(), words_);
        else
            orPermanentsIntoNext(/*mark=*/false);
    }

    // Latch maintenance, vectorized: fresh = next & latchable & ~perm
    // names the universal self-loop states enabled for the first time
    // this run; after pooling their successors every latchable bit of
    // next is permanent, and perm ⊆ latchable, so one AND-NOT with the
    // permanent set evicts them all from the dynamic vector.
    if (has_latchable_) {
        uint64_t *fresh = scratch_.data();
        ops_->bitAnd(fresh, next, dv_.latchable.data(), words_);
        ops_->andNotInto(fresh, perm_.data(), words_);
        for (size_t w = 0; w < words_; ++w)
            if (fresh[w] != 0)
                latch(w, fresh[w]);
        if (has_perm_)
            ops_->andNotInto(next, perm_.data(), words_);
    }

    // Exact summary rebuild as two vector sweeps, so a later cycle can
    // return to the skip path (and its clearNext) with precise
    // bookkeeping.
    ops_->nonzeroWords(next_sum_.data(), next, words_);
    ops_->nonzeroWords(next_sum2_.data(), next_sum_.data(), sum_words_);
}

} // namespace sparseap
