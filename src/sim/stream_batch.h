/**
 * @file
 * Lane-parallel multi-stream batch execution over one shared automaton.
 *
 * A multi-tenant match service runs B independent input streams against
 * one rule set. Executing them one after another re-streams the
 * automaton's tables (symbol-class accept rows, DFA transition table)
 * through the cache B times and — on the DFA path — leaves exactly one
 * dependent table lookup in flight per cycle. The batch runner instead:
 *
 *  - assigns stream i to lane i mod L (L = min(jobs, B)) and runs the
 *    lanes over the PR 1/2 thread pool;
 *  - inside a lane, advances every stream a *quantum* of T symbols
 *    before rotating to the next (cache blocking: the table lines a
 *    stream pulls in are reused by its lane-mates while still
 *    resident, amortizing the load cost over the lane instead of
 *    paying it per stream);
 *  - when the streams execute on the DFA table, interleaves them one
 *    symbol per stream per rotation (EngineSession::feedFused): B
 *    independent table-lookup dependency chains overlap in the memory
 *    pipeline, where a lone stream is latency-bound on its own
 *    dependent loads. This is the single-core speedup source measured
 *    by bench/multi_stream. A batch of one has no partner and feeds
 *    alone, keeping the input skip the fused interleave does not
 *    consult.
 *
 * Determinism: results land in per-stream slots, every stream's chunk
 * grid is the fixed quantum (independent of the lane count), and
 * whether a batch is fused depends only on its stream count —
 * so the full result set, reports and stats, is byte-identical at any
 * SPARSEAP_JOBS.
 */

#ifndef SPARSEAP_SIM_STREAM_BATCH_H
#define SPARSEAP_SIM_STREAM_BATCH_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/flat_automaton.h"
#include "sim/session.h"

namespace sparseap {

/** Outcome of one stream of a batch run. */
struct StreamResult
{
    /** The stream's reports, positions = global stream offsets. */
    ReportList reports;
    /** The core the stream executed on (EngineSession resolution). */
    EngineMode resolvedMode = EngineMode::Sparse;
    /** The stream's session accounting. */
    SessionStats stats;
};

/** Executes batches of independent streams over one FlatAutomaton. */
class StreamBatchRunner
{
  public:
    /** Session configuration from globalOptions(). */
    explicit StreamBatchRunner(const FlatAutomaton &fa);

    StreamBatchRunner(const FlatAutomaton &fa, SessionConfig config);

    /** Round-robin quantum: symbols per stream per rotation. */
    static constexpr size_t kDefaultQuantum = 4096;

    /** Override the rotation quantum (clamped to >= 1). */
    void setQuantum(size_t symbols);

    size_t quantum() const { return quantum_; }

    /**
     * Run every stream of @p inputs to completion with
     * globalOptions().jobs lanes. results[i] belongs to inputs[i].
     */
    std::vector<StreamResult>
    run(std::span<const std::span<const uint8_t>> inputs) const;

    /** Run with an explicit lane budget (0 = 1; clamped to B). */
    std::vector<StreamResult>
    run(std::span<const std::span<const uint8_t>> inputs,
        unsigned jobs) const;

  private:
    void runLane(size_t lane, size_t lanes,
                 std::span<const std::span<const uint8_t>> inputs,
                 std::vector<StreamResult> *results) const;

    const FlatAutomaton &fa_;
    SessionConfig config_;
    size_t quantum_ = kDefaultQuantum;
};

} // namespace sparseap

#endif // SPARSEAP_SIM_STREAM_BATCH_H
