#include "benchmark/src/drive.h"

#include <cmath>
#include <iostream>
#include <random>
#include <thread>

namespace orion::e2e {

namespace {

u64
splitmix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Image `lane` of request `index`: uniform in [-1, 1], the calibration
 *  range the compiler fits activations to. */
std::vector<double>
make_input(u64 seed, i64 index, int lane, std::size_t n)
{
    std::mt19937_64 rng(splitmix(splitmix(seed) ^
                                 static_cast<u64>(index * 64 + lane)));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(n);
    for (double& v : x) v = dist(rng);
    return x;
}

struct Verdict {
    bool ok = false;
    double bits = 0.0;
    double max_err = INFINITY;
};

/**
 * The correctness gate: max |got - cleartext| within the ceiling, and the
 * same argmax unless the cleartext top-2 logits are closer than it.
 */
Verdict
check_output(const nn::Network& net, const std::vector<double>& x,
             const std::vector<double>& got, double ceiling)
{
    const std::vector<double> want = net.forward(x);
    if (want.empty() || got.size() != want.size()) return {};
    double max_err = 0.0;
    double sum = 0.0;
    std::size_t top = 0;
    std::size_t got_top = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const double d = std::abs(got[i] - want[i]);
        max_err = std::max(max_err, d);
        sum += d;
        if (want[i] > want[top]) top = i;
        if (got[i] > got[got_top]) got_top = i;
    }
    double runner_up = -INFINITY;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (i != top) runner_up = std::max(runner_up, want[i]);
    }
    const bool argmax_ok =
        got_top == top || want[top] - runner_up < ceiling;
    const double mean_err = sum / static_cast<double>(want.size());
    return {argmax_ok && max_err <= ceiling,
            -std::log2(std::max(mean_err, 1e-300)), max_err};
}

void
note_failure(const std::string& what)
{
    static std::atomic<int> shown{0};
    if (shown.fetch_add(1) < 5) std::cerr << "failure: " << what << "\n";
}

void
snapshot(Stack& st, serve::ServerStats& stats,
         std::map<std::string, double>& registry)
{
    stats = st.server().stats();
    registry = telemetry::Registry::global().snapshot();
}

/** Encrypt -> frame round trip -> decrypt -> check, for one request. */
RequestRecord
infer(Stack& st, net::Conn& conn, std::size_t rank, i64 index, int images,
      u64 seed, Clock::time_point due, Ledger& ledger)
{
    const WorkloadConfig& wc = st.config();
    RequestRecord rec;
    rec.index = index;
    rec.images = images;
    rec.due = due;
    const std::size_t n = st.compiled().input_shape.size();
    std::vector<std::vector<double>> inputs;
    for (int lane = 0; lane < images; ++lane) {
        inputs.push_back(make_input(seed, index, lane, n));
    }
    ledger.attempted += 1;

    Stack::SessionSlot& slot = st.session(rank);
    Stack::Owner& owner = st.owner(rank % static_cast<std::size_t>(wc.bundles));
    std::shared_lock<std::shared_mutex> slot_lock(slot.mu);
    ckks::serial::Bytes response;
    std::vector<std::vector<double>> outputs;
    rec.start = Clock::now();
    try {
        TELEM_SPAN_ID("bench.request", index);
        ckks::serial::Bytes request;
        {
            std::lock_guard<std::mutex> lk(owner.mu);
            TELEM_SPAN_ID("client.encrypt", index);
            const auto t0 = Clock::now();
            owner.client->set_session_id(slot.token);
            request = images == 1 ? owner.client->make_request(inputs[0])
                                  : owner.client->make_request_batch(inputs);
            rec.server_request_id = owner.next_request_id++;
            rec.encrypt_ms = ms_between(t0, Clock::now());
        }
        rec.request_kib = static_cast<double>(request.size()) / 1024.0;
        {
            TELEM_SPAN_ID("net.rpc", index);
            const auto t0 = Clock::now();
            net::Frame reply = st.rpc(conn, net::MsgType::kRequest, request,
                                      net::MsgType::kResponse);
            rec.rpc_ms = ms_between(t0, Clock::now());
            response = std::move(reply.payload);
        }
        {
            std::lock_guard<std::mutex> lk(owner.mu);
            TELEM_SPAN_ID("client.decrypt", index);
            const auto t0 = Clock::now();
            if (images == 1) {
                outputs.push_back(owner.client->decrypt_response(response));
            } else {
                outputs = owner.client->decrypt_response_batch(response, images);
            }
            rec.decrypt_ms = ms_between(t0, Clock::now());
        }
    } catch (const WireFailure& e) {
        rec.end = Clock::now();
        (e.typed ? ledger.server_errors : ledger.transport_errors) += 1;
        note_failure(e.what());
        return rec;
    } catch (const std::exception& e) {
        rec.end = Clock::now();
        ledger.transport_errors += 1;
        note_failure(e.what());
        return rec;
    }
    rec.end = Clock::now();
    slot_lock.unlock();

    rec.response_kib = static_cast<double>(response.size()) / 1024.0;
    const serve::Response meta =
        serve::decode_response(response, st.context());
    rec.queue_wait_ms = 1e3 * meta.queue_wait_s;
    rec.execute_ms = 1e3 * meta.execute_s;
    rec.ok = outputs.size() == inputs.size();
    rec.precision_bits = INFINITY;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const Verdict v =
            check_output(st.network(), inputs[i], outputs[i], wc.error_ceiling);
        rec.ok = rec.ok && v.ok;
        rec.precision_bits = std::min(rec.precision_bits, v.bits);
        rec.max_abs_error = std::max(rec.max_abs_error, v.max_err);
    }
    if (!rec.ok) {
        ledger.wrong_answers += 1;
        note_failure("request " + std::to_string(index) +
                     ": reply disagrees with the cleartext network");
    }
    return rec;
}

/** Unregisters the session at `rank` and registers a fresh token for it. */
void
churn(Stack& st, net::Conn& conn, std::size_t rank, i64 index,
      Ledger& ledger, std::vector<double>& register_ms)
{
    ledger.attempted += 1;
    Stack::SessionSlot& slot = st.session(rank);
    std::unique_lock<std::shared_mutex> lk(slot.mu);
    try {
        {
            TELEM_SPAN_ID("keys.unregister", index);
            st.unregister(conn, slot.token);
        }
        const auto t0 = Clock::now();
        {
            TELEM_SPAN_ID("keys.register", index);
            slot.token = st.register_owner(
                conn, rank % static_cast<std::size_t>(st.config().bundles));
        }
        register_ms.push_back(ms_between(t0, Clock::now()));
    } catch (const WireFailure& e) {
        (e.typed ? ledger.server_errors : ledger.transport_errors) += 1;
        note_failure(e.what());
    }
}

struct Op {
    double due_s = 0.0;
    bool churn = false;
    std::size_t rank = 0;
    int images = 1;
};

std::vector<Op>
make_schedule(u64 seed, double rate, double seconds, int sessions, int batch)
{
    std::mt19937_64 rng(seed);
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(rate * seconds)));
    std::vector<Op> ops(n);
    std::uniform_real_distribution<double> when(0.0, seconds);
    std::vector<double> due(n);
    for (double& d : due) d = when(rng);
    std::sort(due.begin(), due.end());

    // Exact shares, at seeded positions: 10% churn, and one in four
    // inferences carrying a full batch.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    const std::size_t churns = n / 10;
    const std::size_t batched = (n - churns) / 4;
    std::vector<double> zipf_cum;
    double total = 0.0;
    for (int r = 1; r <= sessions; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r), 1.1);
        zipf_cum.push_back(total);
    }
    std::uniform_real_distribution<double> zipf(0.0, total);
    std::uniform_int_distribution<std::size_t> cold(
        static_cast<std::size_t>(sessions / 2),
        static_cast<std::size_t>(sessions - 1));
    for (std::size_t k = 0; k < n; ++k) {
        Op& op = ops[order[k]];
        op.churn = k < churns;
        op.images = (k >= churns && k < churns + batched) ? batch : 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
        ops[i].due_s = due[i];
        ops[i].rank =
            ops[i].churn
                ? cold(rng)
                : static_cast<std::size_t>(
                      std::lower_bound(zipf_cum.begin(), zipf_cum.end(),
                                       zipf(rng)) -
                      zipf_cum.begin());
        ops[i].rank = std::min(ops[i].rank,
                               static_cast<std::size_t>(sessions - 1));
    }
    return ops;
}

void
finish_phase(Stack& st, PhaseResult& pr, Clock::time_point t0, double cpu0)
{
    Clock::time_point last = t0;
    for (const RequestRecord& r : pr.requests) {
        last = std::max(last, r.end);
        if (r.ok) pr.images_ok += static_cast<u64>(r.images);
    }
    pr.wall_s = ms_between(t0, last) / 1e3;
    pr.cpu_s = cpu_seconds() - cpu0;
    snapshot(st, pr.server_after, pr.registry_after);
}

}  // namespace

void
Ledger::add(const Ledger& o)
{
    attempted += o.attempted;
    transport_errors += o.transport_errors;
    server_errors += o.server_errors;
    wrong_answers += o.wrong_answers;
}

std::vector<double>
PhaseResult::latencies_ms() const
{
    std::vector<double> out;
    for (const RequestRecord& r : requests) out.push_back(r.latency_ms());
    return out;
}

double
PhaseResult::max_abs_error() const
{
    double err = 0.0;
    for (const RequestRecord& r : requests) {
        err = std::max(err, r.max_abs_error);
    }
    return err;
}

double
PhaseResult::min_precision_bits() const
{
    double bits = INFINITY;
    for (const RequestRecord& r : requests) {
        if (r.ok) bits = std::min(bits, r.precision_bits);
    }
    return std::isfinite(bits) ? bits : 0.0;
}

PhaseResult
run_closed_loop(Stack& st, u64 seed, i64& next_index, double seconds,
                int min_requests)
{
    PhaseResult pr;
    snapshot(st, pr.server_before, pr.registry_before);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    while (static_cast<int>(pr.requests.size()) < min_requests ||
           ms_between(t0, Clock::now()) < 1e3 * seconds) {
        pr.requests.push_back(infer(st, st.conn(0), 0, next_index++, 1, seed,
                                    Clock::now(), pr.ledger));
    }
    finish_phase(st, pr, t0, cpu0);
    return pr;
}

PhaseResult
run_open_loop(Stack& st, u64 seed, i64& next_index, double rate,
              double seconds)
{
    const WorkloadConfig& wc = st.config();
    const i64 first = next_index;
    const std::vector<Op> ops =
        make_schedule(splitmix(seed ^ static_cast<u64>(first)), rate,
                      seconds, wc.sessions, wc.batch);
    next_index += static_cast<i64>(ops.size());

    PhaseResult pr;
    snapshot(st, pr.server_before, pr.registry_before);
    const double cpu0 = cpu_seconds();
    const auto origin = Clock::now() + std::chrono::milliseconds(5);
    std::atomic<std::size_t> next{0};
    const auto conns = static_cast<std::size_t>(wc.connections);
    std::vector<PhaseResult> per_conn(conns);
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < conns; ++c) {
        senders.emplace_back([&, c] {
            PhaseResult& mine = per_conn[c];
            for (std::size_t i = next.fetch_add(1); i < ops.size();
                 i = next.fetch_add(1)) {
                const Op& op = ops[i];
                const auto due =
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(op.due_s));
                std::this_thread::sleep_until(due);
                const i64 index = first + static_cast<i64>(i);
                try {
                    if (op.churn) {
                        churn(st, st.conn(c), op.rank, index, mine.ledger,
                              mine.register_ms);
                    } else {
                        mine.requests.push_back(infer(st, st.conn(c), op.rank,
                                                      index, op.images, seed,
                                                      due, mine.ledger));
                    }
                } catch (const std::exception& e) {
                    // A reply that decrypted but would not decode or check.
                    mine.ledger.transport_errors += 1;
                    note_failure(e.what());
                }
            }
        });
    }
    for (std::thread& t : senders) t.join();
    for (PhaseResult& mine : per_conn) {
        pr.ledger.add(mine.ledger);
        pr.requests.insert(pr.requests.end(), mine.requests.begin(),
                           mine.requests.end());
        pr.register_ms.insert(pr.register_ms.end(), mine.register_ms.begin(),
                              mine.register_ms.end());
    }
    std::sort(pr.requests.begin(), pr.requests.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                  return a.index < b.index;
              });
    finish_phase(st, pr, origin, cpu0);
    return pr;
}

ExecSplit
measure_exec_split(Stack& st, u64 seed, i64& next_index, double seconds,
                   Ledger& ledger)
{
    using Op = core::Instruction::Op;
    const core::CompiledNetwork& cn = st.compiled();
    std::map<int, unsigned> ops_of;
    std::map<int, int> boots_of;
    int program_boots = 0;
    for (const core::Instruction& ins : cn.program) {
        ops_of[ins.layer_id] |= 1u << static_cast<unsigned>(ins.op);
        if (ins.op == Op::kBootstrap) {
            boots_of[ins.layer_id] += 1;
            program_boots += 1;
        }
    }
    const auto has = [](unsigned ops, Op op) {
        return (ops & (1u << static_cast<unsigned>(op))) != 0;
    };
    telemetry::Registry& reg = telemetry::Registry::global();
    std::vector<telemetry::Histogram*> stages;
    for (const char* name : {"boot.mod_raise.seconds", "boot.cts.seconds",
                             "boot.eval_mod.seconds", "boot.stc.seconds"}) {
        stages.push_back(&reg.histogram(name));
    }
    const auto boot_seconds = [&] {
        double s = 0.0;
        for (const telemetry::Histogram* h : stages) s += h->sum();
        return s;
    };

    // In-process submission needs the server's local session id, so this
    // phase registers its own session directly.
    Stack::Owner& owner = st.owner(0);
    serve::InferenceServer& server = st.server();
    const u64 local = server.register_session(owner.bundle);
    const std::size_t n = cn.input_shape.size();
    ExecSplit out;
    const auto t0 = Clock::now();
    for (int attempts = 0;
         attempts < 2 || ms_between(t0, Clock::now()) < 1e3 * seconds;
         ++attempts) {
        const i64 index = next_index++;
        const std::vector<double> x = make_input(seed, index, 0, n);
        ledger.attempted += 1;
        ckks::serial::Bytes request;
        {
            std::lock_guard<std::mutex> lk(owner.mu);
            owner.client->set_session_id(local);
            request = owner.client->make_request(x);
            owner.next_request_id += 1;
        }
        const double boot_before = boot_seconds();
        serve::ServeReply reply;
        try {
            reply = server.submit(std::move(request)).get();
        } catch (const std::exception& e) {
            ledger.server_errors += 1;
            note_failure(e.what());
            continue;
        }
        const double boot_ms = 1e3 * (boot_seconds() - boot_before);
        for (const core::LayerTiming& lt : reply.stats.layer_times) {
            const unsigned ops = ops_of[lt.layer_id];
            double ms = 1e3 * lt.seconds;
            if (program_boots > 0 && boots_of[lt.layer_id] > 0) {
                ms -= boot_ms * boots_of[lt.layer_id] / program_boots;
            }
            if (has(ops, Op::kLinear)) {
                out.linear_ms += ms;
            } else if (has(ops, Op::kActivation) || has(ops, Op::kMul)) {
                out.activation_ms += ms;
            } else {
                out.other_ms += ms;
            }
        }
        out.bootstrap_ms += boot_ms;
        out.execute_ms += 1e3 * reply.stats.execute_s;
        out.requests += 1;

        std::vector<double> got;
        {
            std::lock_guard<std::mutex> lk(owner.mu);
            got = owner.client->decrypt_response(reply.response);
        }
        if (!check_output(st.network(), x, got, st.config().error_ceiling)
                 .ok) {
            ledger.wrong_answers += 1;
            note_failure("in-process request " + std::to_string(index) +
                         ": reply disagrees with the cleartext network");
        }
    }
    server.unregister_session(local);
    const double k = std::max(out.requests, 1);
    out.linear_ms /= k;
    out.activation_ms /= k;
    out.bootstrap_ms /= k;
    out.other_ms /= k;
    out.execute_ms /= k;
    return out;
}

}  // namespace orion::e2e
