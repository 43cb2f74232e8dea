#ifndef ORION_BENCHMARK_SRC_TRACE_TABLE_H_
#define ORION_BENCHMARK_SRC_TRACE_TABLE_H_

/**
 * @file
 * Per-layer self time from a traced phase. Spans nest by time on their
 * own thread; a request's server-side root spans (serve.decode,
 * serve.execute, recorded on a worker thread) are children of the
 * request's net.rpc span. A span's self time is its duration minus the
 * part of it that its children cover.
 */

#include "benchmark/src/drive.h"
#include "src/core/telemetry.h"

namespace orion::e2e {

struct LayerRow {
    std::string name;
    u64 spans = 0;
    double self_ms = 0.0;  ///< summed over the phase
};

struct TraceTable {
    /** Spans on each request's blocking chain (client thread + its worker). */
    std::vector<LayerRow> chain;
    /** Everything else traced meanwhile (kernel pool threads, the loop). */
    std::vector<LayerRow> off_chain;
    /** Sum of client-observed latency over the phase's requests. */
    double latency_ms = 0.0;
    /** Generator lateness (due -> send) over those requests. */
    double lateness_ms = 0.0;
    /** (chain self time outside bench.request + lateness) / latency. */
    double coverage = 0.0;
    u64 requests = 0;
};

TraceTable analyze_trace(const std::vector<telemetry::TraceRecord>& events,
                         const std::vector<RequestRecord>& requests);

/** The table as aligned text, one row per span name. */
std::string format_trace_table(const TraceTable& t);

}  // namespace orion::e2e

#endif  // ORION_BENCHMARK_SRC_TRACE_TABLE_H_
