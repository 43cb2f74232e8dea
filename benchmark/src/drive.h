#ifndef ORION_BENCHMARK_SRC_DRIVE_H_
#define ORION_BENCHMARK_SRC_DRIVE_H_

/**
 * @file
 * Load generation: the closed loop of one data owner, the open-loop
 * Poisson mix of many sessions with churn, and the in-process executor
 * split. Every input, session choice, arrival time and batch size comes
 * from the workload seed; every reply is checked against the cleartext
 * network.
 */

#include "benchmark/src/stack.h"

namespace orion::e2e {

/** One inference request as its data owner saw it. */
struct RequestRecord {
    i64 index = 0;              ///< benchmark request index (span id)
    u64 server_request_id = 0;  ///< the id the ServeClient stamped
    int images = 1;
    Clock::time_point due, start, end;  ///< due, encrypt start, decrypted
    double encrypt_ms = 0.0, rpc_ms = 0.0, decrypt_ms = 0.0;
    double queue_wait_ms = 0.0, execute_ms = 0.0;  ///< server-reported
    double request_kib = 0.0, response_kib = 0.0;
    double precision_bits = 0.0;  ///< lowest over the request's images
    double max_abs_error = 0.0;   ///< largest over the request's logits
    bool ok = false;

    double latency_ms() const { return ms_between(due, end); }
    double lateness_ms() const { return ms_between(due, start); }
};

/** Operations attempted and how the failed ones failed. */
struct Ledger {
    u64 attempted = 0;
    u64 transport_errors = 0;
    u64 server_errors = 0;  ///< typed kError replies (incl. rejections)
    u64 wrong_answers = 0;
    u64 failed() const
    {
        return transport_errors + server_errors + wrong_answers;
    }
    void add(const Ledger& o);
};

/** What one measured phase produced. */
struct PhaseResult {
    std::vector<RequestRecord> requests;  ///< inference requests only
    std::vector<double> register_ms;      ///< churn registrations
    Ledger ledger;
    double wall_s = 0.0;  ///< first due time to last completion
    double cpu_s = 0.0;   ///< process CPU seconds over the phase
    u64 images_ok = 0;
    serve::ServerStats server_before, server_after;
    std::map<std::string, double> registry_before, registry_after;

    std::vector<double> latencies_ms() const;
    double min_precision_bits() const;
    double max_abs_error() const;
};

/**
 * One owner, one session, one connection: the next request is sent only
 * after the previous reply is decrypted. Runs at least `min_requests`
 * and until `seconds` have passed.
 */
PhaseResult run_closed_loop(Stack& st, u64 seed, i64& next_index,
                            double seconds, int min_requests);

/**
 * Open-loop arrivals at `rate` per second for `seconds` (a Poisson
 * process conditioned on its count: rate * seconds arrivals at seeded
 * uniform times), served over every connection of the stack. 90% are
 * inferences on Zipf(1.1)-chosen sessions, one in four carrying
 * `batch` images; 10% unregister a cold session and register a fresh
 * token for it. Latency counts from each request's due time.
 */
PhaseResult run_open_loop(Stack& st, u64 seed, i64& next_index, double rate,
                          double seconds);

/** Mean per-request split of the server's execute time by op class. */
struct ExecSplit {
    double linear_ms = 0.0;
    double activation_ms = 0.0;
    double bootstrap_ms = 0.0;
    double other_ms = 0.0;
    double execute_ms = 0.0;  ///< mean RequestStats::execute_s
    int requests = 0;
};

/**
 * Submits requests in-process (no transport) to read each one's
 * RequestStats::layer_times, and splits them by the Instruction::Op of the
 * program instructions carrying each layer id. Bootstrap time comes from
 * the boot.* stage histograms; a layer group holding a bootstrap is
 * charged the rest to its other ops.
 */
ExecSplit measure_exec_split(Stack& st, u64 seed, i64& next_index,
                             double seconds, Ledger& ledger);

}  // namespace orion::e2e

#endif  // ORION_BENCHMARK_SRC_DRIVE_H_
