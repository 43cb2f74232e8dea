/**
 * @file
 * orion_e2e: runs one benchmark workload in this process and prints its
 * metrics. run.py builds and invokes it; see README.md.
 *
 *   orion_e2e --workload NAME --seed N --seconds S --trace 0|1
 *             [--git-sha SHA] [--scratch DIR] [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics with tracing off (setup three
 * times, then the measured phase). --trace 1 measures the per-layer
 * metrics: an untraced phase, a traced phase (chrome trace + self-time
 * table) and an in-process executor split. The last stdout line is one
 * JSON object with the metrics, the failure ledger and the provenance.
 */

#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "benchmark/src/drive.h"
#include "benchmark/src/trace_table.h"
#include "src/ckks/kernels.h"

using namespace orion;
using namespace orion::e2e;

namespace {

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string scratch = ".";
    std::string trace_out;
};

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        ORION_CHECK(i + 1 < argc, "missing value after " << k);
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--git-sha") {
            a.git_sha = v;
        } else if (k == "--scratch") {
            a.scratch = v;
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            throw Error("unknown argument " + k);
        }
    }
    ORION_CHECK(a.seconds > 0.0, "--seconds must be positive");
    return a;
}

std::string
cpu_model()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

double
delta(const PhaseResult& p, const std::string& name)
{
    const auto at = [&](const std::map<std::string, double>& m) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    return at(p.registry_after) - at(p.registry_before);
}

double
mib(double bytes)
{
    return bytes / (1024.0 * 1024.0);
}

/** p90 of latency within the limit, nothing failed, no backlog left. */
bool
meets_slo(const PhaseResult& p, double limit_ms, double rung_s)
{
    const double drain_ms = 1e3 * (p.wall_s - rung_s);
    return p.ledger.failed() == 0 &&
           quantile(p.latencies_ms(), 0.9) <= limit_ms && drain_ms <= limit_ms;
}

/**
 * The open loop's fixed rates (req/s): the base rate, about a third of the
 * micro MLP's capacity on a 4-core host, and the SLO ladder above it,
 * climbed in steps of 10 until a rung misses.
 */
constexpr double kBaseRate = 40.0;
constexpr double kLadderFirst = 90.0;
constexpr double kLadderStep = 10.0;
constexpr int kLadderRungs = 12;
/** Shares of --seconds: the base phase, and each ladder rung. */
constexpr double kBaseShare = 0.4;
constexpr double kRungShare = 0.15;

/**
 * The highest rate, of the base rate and the ladder's, that meets the SLO.
 * When the next rung misses only on p90 latency, interpolate linearly in
 * p90 between the two, so the figure moves with capacity instead of
 * jumping by whole rungs.
 */
double
slo_rate(Stack& st, const PhaseResult& base, u64 seed, i64& next_index,
         double seconds, Ledger& ledger, u64& samples)
{
    const WorkloadConfig& wc = st.config();
    samples = base.requests.size();
    if (!meets_slo(base, wc.latency_limit_ms, kBaseShare * seconds)) {
        return 0.0;
    }
    double best = kBaseRate;
    double best_p90 = quantile(base.latencies_ms(), 0.9);
    const double rung_s = kRungShare * seconds;
    for (int rung = 0; rung < kLadderRungs; ++rung) {
        const double rate = kLadderFirst + kLadderStep * rung;
        const PhaseResult p = run_open_loop(st, seed, next_index, rate, rung_s);
        ledger.add(p.ledger);
        samples += p.requests.size();
        const double p90 = quantile(p.latencies_ms(), 0.9);
        std::printf("  ladder %6.1f req/s: %4zu requests, p90 %8.2f ms, "
                    "failed %llu\n",
                    rate, p.requests.size(), p90,
                    static_cast<unsigned long long>(p.ledger.failed()));
        if (meets_slo(p, wc.latency_limit_ms, rung_s)) {
            best = rate;
            best_p90 = p90;
            continue;
        }
        if (p.ledger.failed() == 0 && p90 > best_p90) {
            best += (rate - best) * (wc.latency_limit_ms - best_p90) /
                    (p90 - best_p90);
        }
        break;
    }
    return best;
}

void
print_provenance(const Args& a, const Stack& st, std::ostream& os)
{
    const WorkloadConfig& wc = st.config();
    const ckks::CkksParams& p = wc.params;
    const core::CompiledNetwork& cn = st.compiled();
    os << "{\"git_sha\": " << json_string(a.git_sha)
       << ", \"cpu\": " << json_string(cpu_model())
       << ", \"isa\": "
       << json_string(ckks::kernels::isa_name(ckks::kernels::active_isa()))
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"workload\": " << json_string(wc.name)
       << ", \"model\": " << json_string(wc.model)
       << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
       << ", \"workers\": " << wc.workers
       << ", \"threads_per_request\": " << wc.threads_per_request
       << ", \"connections\": " << wc.connections
       << ", \"sessions\": " << wc.sessions
       << ", \"bundles\": " << wc.bundles
       << ", \"params\": {\"name\": " << json_string(wc.params_name)
       << ", \"poly_degree\": " << p.poly_degree
       << ", \"log_scale\": " << p.log_scale
       << ", \"first_prime_bits\": " << p.first_prime_bits
       << ", \"num_scale_primes\": " << p.num_scale_primes
       << ", \"special_prime_bits\": " << p.special_prime_bits
       << ", \"digit_size\": " << p.digit_size
       << ", \"secret_weight\": " << p.secret_weight << "}"
       << ", \"l_eff\": " << wc.l_eff << ", \"batch\": " << cn.batch
       << ", \"batch_capacity\": " << cn.batch_capacity << "}";
}

/** What the report's "checks" object carries beyond the metrics. */
struct Checks {
    double max_abs_error = 0.0;
    bool traced = false;
    double exec_split_ms = 0.0;    ///< sum of the op-class times
    double exec_execute_ms = 0.0;  ///< the execute time they split
    double trace_coverage = 0.0;
};

using Put = std::function<void(const std::string&, double, const std::string&,
                               u64)>;

/** Tracing off: the measured phase, then (open loop) the SLO ladder. */
void
measure_end_to_end(Stack& st, const Args& args,
                   const std::vector<double>& setup_s, i64& next_index,
                   Ledger& ledger, const Put& put, Checks& checks)
{
    const WorkloadConfig& wc = st.config();
    PhaseResult main_phase;
    u64 slo_samples = 0;
    double slo = 0.0;
    if (wc.open_loop) {
        main_phase = run_open_loop(st, args.seed, next_index, kBaseRate,
                                   kBaseShare * args.seconds);
        ledger.add(main_phase.ledger);
        slo = slo_rate(st, main_phase, args.seed, next_index, args.seconds,
                       ledger, slo_samples);
    } else {
        main_phase =
            run_closed_loop(st, args.seed, next_index, args.seconds, 1);
        ledger.add(main_phase.ledger);
        // A closed loop of one owner has no rate ladder: its rate is the
        // one it sustains, which counts while p90 meets the limit.
        if (meets_slo(main_phase, wc.latency_limit_ms, main_phase.wall_s)) {
            slo = static_cast<double>(main_phase.requests.size()) /
                  main_phase.wall_s;
        }
        slo_samples = main_phase.requests.size();
    }
    const std::vector<double> lat = main_phase.latencies_ms();
    const u64 n = lat.size();
    put("latency_p50_ms", quantile(lat, 0.5), "ms", n);
    put("latency_p90_ms", quantile(lat, 0.9), "ms", n);
    put("throughput_per_s",
        static_cast<double>(main_phase.images_ok) / main_phase.wall_s,
        "images/s", main_phase.images_ok);
    put("slo_rate_per_s", slo, "req/s", slo_samples);
    put("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
    put("precision_bits", main_phase.min_precision_bits(), "bits", n);
    put("key_bundle_mb", mib(static_cast<double>(st.bundle_bytes())), "MiB",
        1);
    checks.max_abs_error = main_phase.max_abs_error();
}

/**
 * Tracing on: an untraced phase (the overhead reference), a traced phase
 * that every per-layer number comes from, and the executor split.
 */
void
measure_per_layer(Stack& st, const Args& args, i64& next_index,
                  Ledger& ledger, const Put& put, Checks& checks)
{
    const WorkloadConfig& wc = st.config();
    const SetupTimes& times = st.times();
    const core::CompiledNetwork& cn = st.compiled();
    const auto phase = [&](double share) {
        return wc.open_loop ? run_open_loop(st, args.seed, next_index,
                                            kBaseRate, share * args.seconds)
                            : run_closed_loop(st, args.seed, next_index,
                                              share * args.seconds, 3);
    };
    const PhaseResult a = phase(0.3);
    ledger.add(a.ledger);
    telemetry::clear_trace();
    telemetry::set_tracing(true);
    const PhaseResult b = phase(0.4);
    telemetry::set_tracing(false);
    ledger.add(b.ledger);
    const TraceTable table =
        analyze_trace(telemetry::collect_trace_events(), b.requests);
    std::printf("\n%s\n", format_trace_table(table).c_str());
    if (telemetry::trace_dropped() > 0) {
        std::fprintf(stderr, "warning: %llu trace events dropped\n",
                     static_cast<unsigned long long>(
                         telemetry::trace_dropped()));
    }
    if (!args.trace_out.empty()) telemetry::write_trace(args.trace_out);
    const ExecSplit split =
        measure_exec_split(st, args.seed, next_index, 0.3 * args.seconds,
                           ledger);
    checks.traced = true;
    checks.max_abs_error = b.max_abs_error();
    checks.trace_coverage = table.coverage;
    checks.exec_split_ms = split.linear_ms + split.activation_ms +
                           split.bootstrap_ms + split.other_ms;
    checks.exec_execute_ms = split.execute_ms;

    const u64 n = b.requests.size();
    const double per_req = 1.0 / static_cast<double>(std::max<u64>(n, 1));
    const auto col = [&](double RequestRecord::*f) {
        std::vector<double> v;
        for (const RequestRecord& r : b.requests) v.push_back(r.*f);
        return v;
    };
    std::vector<double> overhead, lateness;
    for (const RequestRecord& r : b.requests) {
        overhead.push_back(r.rpc_ms - r.queue_wait_ms - r.execute_ms);
        lateness.push_back(r.lateness_ms());
    }
    put("client.encrypt_ms", quantile(col(&RequestRecord::encrypt_ms), 0.5),
        "ms", n);
    put("client.decrypt_ms", quantile(col(&RequestRecord::decrypt_ms), 0.5),
        "ms", n);
    put("client.keygen_ms", times.keygen_ms / wc.bundles, "ms",
        static_cast<u64>(wc.bundles));
    put("client.request_kib", mean(col(&RequestRecord::request_kib)), "KiB",
        n);
    put("client.response_kib", mean(col(&RequestRecord::response_kib)),
        "KiB", n);
    put("net.rpc_overhead_ms", quantile(overhead, 0.5), "ms", n);

    const std::vector<double> queue = col(&RequestRecord::queue_wait_ms);
    const std::vector<double> exec = col(&RequestRecord::execute_ms);
    put("server.queue_wait_p50_ms", quantile(queue, 0.5), "ms", n);
    put("server.queue_wait_p90_ms", quantile(queue, 0.9), "ms", n);
    put("server.execute_p50_ms", quantile(exec, 0.5), "ms", n);
    put("server.execute_p90_ms", quantile(exec, 0.9), "ms", n);
    const serve::ServerStats& s0 = b.server_before;
    const serve::ServerStats& s1 = b.server_after;
    put("server.peak_queue_depth", static_cast<double>(s1.peak_queue_depth),
        "count", 1);
    put("server.rejected", static_cast<double>(s1.rejected), "count", 1);

    const auto lookups = static_cast<double>(
        (s1.key_cache_hits - s0.key_cache_hits) +
        (s1.key_cache_misses - s0.key_cache_misses));
    put("keys.hit_rate",
        lookups > 0 ? static_cast<double>(s1.key_cache_hits -
                                          s0.key_cache_hits) /
                          lookups
                    : 1.0,
        "ratio", static_cast<u64>(lookups));
    put("keys.evictions",
        static_cast<double>(s1.key_cache_evictions - s0.key_cache_evictions),
        "count", 1);
    put("keys.resident_mb", mib(static_cast<double>(s1.key_resident_bytes)),
        "MiB", 1);
    std::vector<double> reg = times.register_ms;
    reg.insert(reg.end(), b.register_ms.begin(), b.register_ms.end());
    put("keys.register_ms", quantile(reg, 0.5), "ms", reg.size());

    put("compiler.compile_ms", times.compile_ms, "ms", 1);
    put("compiler.placement_ms", 1e3 * cn.placement_seconds, "ms", 1);
    put("compiler.instructions", static_cast<double>(cn.program.size()),
        "count", 1);
    put("compiler.rotations", static_cast<double>(cn.total_rotations),
        "count", 1);
    put("compiler.bootstraps", static_cast<double>(cn.num_bootstraps),
        "count", 1);
    put("compiler.modeled_ms", 1e3 * cn.modeled_latency, "ms", 1);
    put("compiler.model_ratio",
        cn.modeled_latency > 0
            ? quantile(exec, 0.5) / (1e3 * cn.modeled_latency)
            : 0.0,
        "ratio", n);

    const auto k = static_cast<u64>(split.requests);
    put("exec.prepare_ms", times.prepare_ms, "ms", 1);
    put("exec.linear_ms", split.linear_ms, "ms", k);
    put("exec.activation_ms", split.activation_ms, "ms", k);
    put("exec.bootstrap_ms", split.bootstrap_ms, "ms", k);
    put("exec.other_ms", split.other_ms, "ms", k);

    const auto snap = telemetry::Registry::global().snapshot();
    const auto stat = [&](const std::string& name) {
        const auto it = snap.find(name);
        return it == snap.end() ? 0.0 : it->second;
    };
    const auto boots = static_cast<u64>(stat("boot.cts.seconds.count"));
    for (const char* stage : {"mod_raise", "cts", "eval_mod", "stc"}) {
        put(std::string("boot.") + stage + "_ms",
            1e3 * stat(std::string("boot.") + stage + ".seconds.p50"), "ms",
            boots);
    }

    const double rot = delta(b, "ckks.op.hrot");
    const double hoisted = delta(b, "ckks.op.hrot_hoisted");
    put("ckks.rotations", (rot + hoisted) * per_req, "count", n);
    put("ckks.hoisted_share",
        rot + hoisted > 0 ? hoisted / (rot + hoisted) : 0.0, "ratio", n);
    for (const char* op :
         {"keyswitch", "decompose", "ntt", "rescale", "hmult", "pmult"}) {
        put(std::string("ckks.") + op,
            delta(b, std::string("ckks.op.") + op) * per_req, "count", n);
    }
    put("ckks.heap_allocs",
        (delta(b, "ckks.op.poly_alloc") - delta(b, "ckks.op.poly_arena_hit")) *
            per_req,
        "count", n);

    put("pool.cpu_util",
        b.cpu_s / (b.wall_s * wc.workers * wc.threads_per_request), "ratio",
        1);
    put("gen.lateness_p90_ms", quantile(lateness, 0.9), "ms", n);
    const double untraced = quantile(a.latencies_ms(), 0.5);
    put("trace.overhead_ratio",
        untraced > 0 ? quantile(b.latencies_ms(), 0.5) / untraced : 0.0,
        "ratio", n);
}

}  // namespace

int
main(int argc, char** argv)
try {
    const Args args = parse_args(argc, argv);
    const WorkloadConfig& wc = workload(args.workload);
    if (args.trace) telemetry::set_trace_ring_capacity(std::size_t(1) << 17);

    // Setup: three full deployments in the untraced run (setup_s is their
    // median), one in the traced run. The last one is measured.
    std::unique_ptr<Stack> st;
    std::vector<double> setup_s;
    const int setups = args.trace ? 1 : 3;
    for (int r = 0; r < setups; ++r) {
        st.reset();
        const std::string spill = args.scratch + "/spill-" +
                                  std::to_string(::getpid()) + "-" +
                                  std::to_string(r);
        st = std::make_unique<Stack>(wc, args.seed, spill);
        setup_s.push_back(st->times().total_s);
    }
    const SetupTimes& times = st->times();
    const core::CompiledNetwork& cn = st->compiled();
    std::printf("workload %s: setup %.3f s (context %.0f, compile %.0f, "
                "prepare %.0f, keygen %.0f, bundle %.0f, server %.0f, "
                "%zu registrations %.0f ms); bundle %.1f MiB; %zu "
                "instructions, %llu rotations, %llu bootstraps\n",
                wc.name.c_str(), times.total_s, times.context_ms,
                times.compile_ms, times.prepare_ms, times.keygen_ms,
                times.bundle_ms, times.server_ms, times.register_ms.size(),
                std::accumulate(times.register_ms.begin(),
                                times.register_ms.end(), 0.0),
                mib(static_cast<double>(st->bundle_bytes())),
                cn.program.size(),
                static_cast<unsigned long long>(cn.total_rotations),
                static_cast<unsigned long long>(cn.num_bootstraps));

    Ledger ledger;
    i64 next_index = 0;
    // Warm-up: one request, excluded from every metric but not from the
    // failure ledger.
    ledger.add(run_closed_loop(*st, args.seed, next_index, 0.0, 1).ledger);

    MetricMap m;
    const Put put = [&](const std::string& name, double v,
                        const std::string& unit, u64 samples) {
        m[name] = Metric{v, unit, samples};
    };
    Checks checks;
    if (args.trace) {
        measure_per_layer(*st, args, next_index, ledger, put, checks);
    } else {
        measure_end_to_end(*st, args, setup_s, next_index, ledger, put,
                           checks);
    }
    put("failed_share",
        ledger.attempted > 0 ? static_cast<double>(ledger.failed()) /
                                   static_cast<double>(ledger.attempted)
                             : 1.0,
        "ratio", ledger.attempted);
    put("peak_rss_mb", peak_rss_mb(), "MiB", 1);

    // The ledger identity holds once the server is idle.
    const serve::ServerStats s = st->server().stats();
    const bool balanced =
        s.inflight == 0 && s.completed + s.failed + s.rejected == s.submitted;
    const bool correct = ledger.failed() == 0 && balanced;
    std::ostringstream out;
    out << "{\"workload\": " << json_string(wc.name)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << ledger.attempted
        << ", \"failed\": " << ledger.failed()
        << ", \"failures\": {\"transport\": " << ledger.transport_errors
        << ", \"server\": " << ledger.server_errors
        << ", \"wrong_answer\": " << ledger.wrong_answers << "}"
        << ", \"checks\": {\"ledger_balanced\": "
        << (balanced ? "true" : "false")
        << ", \"server_submitted\": " << s.submitted
        << ", \"server_completed\": " << s.completed
        << ", \"server_failed\": " << s.failed
        << ", \"server_rejected\": " << s.rejected
        << ", \"max_abs_error\": " << json_number(checks.max_abs_error)
        << ", \"error_ceiling\": " << json_number(wc.error_ceiling);
    if (checks.traced) {
        out << ", \"exec_split_ms\": " << json_number(checks.exec_split_ms)
            << ", \"exec_execute_ms\": " << json_number(checks.exec_execute_ms)
            << ", \"trace_coverage\": " << json_number(checks.trace_coverage)
            << ", \"trace_dropped\": " << telemetry::trace_dropped();
    }
    out << "}, \"provenance\": ";
    print_provenance(args, *st, out);
    out << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : m) {
        out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
            << json_number(metric.value) << ", \"unit\": "
            << json_string(metric.unit) << ", \"samples\": " << metric.samples
            << "}";
        first = false;
    }
    out << "}}";
    st.reset();
    std::cout << out.str() << std::endl;
    return correct ? 0 : 3;
} catch (const std::exception& e) {
    std::cerr << "orion_e2e: " << e.what() << "\n";
    return 2;
}
