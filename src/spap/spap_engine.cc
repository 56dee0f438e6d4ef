#include "spap/spap_engine.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "sim/dense_core.h"
#include "sim/exec_core.h"

namespace sparseap {

SpapResult
runSpapMode(const FlatAutomaton &fa, std::span<const uint8_t> input,
            std::span<const SpapEvent> events)
{
    return runSpapMode(fa, input, events, globalOptions().engineMode);
}

SpapResult
runSpapMode(const FlatAutomaton &fa, std::span<const uint8_t> input,
            std::span<const SpapEvent> events, EngineMode mode)
{
    SPARSEAP_ASSERT(fa.allInputStarts().empty() &&
                        fa.startOfDataStarts().empty(),
                    "SpAP mode requires a start-free automaton: the jump "
                    "operation assumes no state is always enabled");
    for (size_t e = 1; e < events.size(); ++e) {
        SPARSEAP_ASSERT(events[e - 1].position <= events[e].position,
                        "SpAP events must be sorted by position");
    }

    SpapResult result;
    const size_t n = input.size();

    // Either core implements the semantics; the enabled-set traces (and
    // hence idle()/jump decisions, consumed cycles and stalls) coincide,
    // so every mode produces the same statistics and report multiset.
    std::unique_ptr<ExecCore> sparse;
    std::unique_ptr<DenseCore> dense;
    if (mode == EngineMode::Dense && fa.size() > 0) {
        dense = std::make_unique<DenseCore>(fa);
        dense->reset(/*install_starts=*/false);
    } else {
        sparse = std::make_unique<ExecCore>(fa);
        sparse->reset(ExecCore::distinctBytes(input), nullptr,
                      /*install_starts=*/false);
    }
    uint64_t work_acc = 0;

    size_t i = 0; // input cursor
    size_t j = 0; // event cursor

    while (i < n) {
        if (dense ? dense->idle() : sparse->idle()) {
            if (j < events.size()) {
                // Jump: nothing can activate until the next enable.
                if (events[j].position > i) {
                    const size_t target =
                        std::min<size_t>(events[j].position, n);
                    result.skippedSymbols += target - i;
                    i = events[j].position;
                    ++result.jumps;
                    if (i >= n)
                        break; // event beyond the input: nothing to do
                }
            } else {
                break;
            }
        }

        // Enable every event at this position; the first enable overlaps
        // input processing, each further simultaneous enable stalls one
        // cycle.
        uint64_t enables_here = 0;
        while (j < events.size() && events[j].position == i) {
            const GlobalStateId s = events[j].state;
            SPARSEAP_ASSERT(s < fa.size(), "event state ", s,
                            " out of range ", fa.size());
            if (dense)
                dense->seed(s);
            else
                sparse->enableState(s);
            ++enables_here;
            ++j;
        }
        result.enables += enables_here;
        if (enables_here > 1)
            result.enableStalls += enables_here - 1;

        if (dense) {
            dense->step(input[i], i, &result.reports);
        } else {
            sparse->step(input[i], i, &result.reports);
            work_acc += sparse->lastStepWork();
        }
        ++result.consumedCycles;
        ++i;

        // Auto handover, with Engine::run's probe: after kProbeCycles
        // *consumed* cycles on the sparse core, hand the in-flight
        // enabled set to the dense core when the measured sparse work
        // exceeds a word sweep — an over-capacity cold batch that runs
        // hot then pays O(live words) per cycle instead of list chasing.
        if (sparse && mode == EngineMode::Auto &&
            result.consumedCycles == Engine::kProbeCycles &&
            Engine::prefersDense(fa.size(), work_acc)) {
            std::vector<GlobalStateId> live;
            sparse->snapshotEnabled(&live);
            dense = std::make_unique<DenseCore>(fa);
            dense->reset(/*install_starts=*/false);
            dense->seed(live);
            sparse.reset();
        }
    }
    return result;
}

} // namespace sparseap
