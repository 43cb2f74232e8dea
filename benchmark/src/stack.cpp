#include "benchmark/src/stack.h"

#include <filesystem>

namespace orion::e2e {

namespace {

/** The ReLU CNN whose activation forces one bootstrap at l_eff 16. */
nn::Network
make_relu_cnn()
{
    auto m = nn::Sequential({nn::Conv2d(1, 4, 3, {.pad = 1}), nn::ReLU(),
                             nn::AvgPool2d(2, 2), nn::Flatten(),
                             nn::Linear(64, 10)});
    return nn::build_network(*m, 1, 8, 8, "relu-cnn", /*seed=*/61);
}

std::vector<WorkloadConfig>
make_workloads()
{
    std::vector<WorkloadConfig> out;
    {
        WorkloadConfig w;
        w.name = "lola_latency";
        w.model = "LoLA (conv5x5/s2 -> x^2 -> FC100 -> x^2 -> FC10)";
        w.params_name = "CkksParams::network(2^13, 8)";
        w.params = ckks::CkksParams::network(u64(1) << 13, 8);
        w.l_eff = 6;
        w.threads_per_request = 4;
        w.error_ceiling = 5e-3;
        w.latency_limit_ms = 2000.0;
        w.make_network = [] { return nn::make_model("lola"); };
        out.push_back(std::move(w));
    }
    {
        WorkloadConfig w;
        w.name = "relu_boot_latency";
        w.model = "Conv(1,4,3,pad 1) -> ReLU[15,15,27] -> AvgPool2 -> FC10";
        w.params_name = "CkksParams::bootstrap_toy(16)";
        w.params = ckks::CkksParams::bootstrap_toy(16);
        w.l_eff = 16;
        w.threads_per_request = 4;
        w.error_ceiling = 0.15;
        w.latency_limit_ms = 2000.0;
        w.make_network = make_relu_cnn;
        out.push_back(std::move(w));
    }
    {
        WorkloadConfig w;
        w.name = "serve_mix";
        w.model = "micro MLP (64-16-5, x^2), batch 16";
        w.params_name = "CkksParams::toy()";
        w.params = ckks::CkksParams::toy();
        w.l_eff = 4;
        w.batch = 16;
        w.workers = 4;
        w.threads_per_request = 1;
        w.connections = 4;
        w.sessions = 256;
        w.bundles = 4;
        w.hot_set = 8;
        w.open_loop = true;
        w.error_ceiling = 5e-3;
        w.latency_limit_ms = 250.0;
        w.make_network = [] { return nn::make_model("micro"); };
        out.push_back(std::move(w));
    }
    return out;
}

template <typename F>
double
time_ms(F&& f)
{
    const auto t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

}  // namespace

const std::vector<WorkloadConfig>&
workloads()
{
    static const std::vector<WorkloadConfig> all = make_workloads();
    return all;
}

const WorkloadConfig&
workload(const std::string& name)
{
    std::string known;
    for (const WorkloadConfig& w : workloads()) {
        if (w.name == name) return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw Error("unknown workload '" + name + "' (known: " + known + ")");
}

Stack::Stack(const WorkloadConfig& wc, u64 seed, std::string spill_dir)
    : wc_(wc), spill_dir_(std::move(spill_dir)), network_(wc.make_network())
{
    const auto t0 = Clock::now();
    times_.context_ms = time_ms([&] {
        TELEM_SPAN("setup.context");
        SessionOptions so;
        so.params = wc.params;
        so.l_eff = wc.l_eff;
        session_ = std::make_unique<Session>(std::move(so));
    });
    times_.compile_ms = time_ms([&] {
        TELEM_SPAN("setup.compile");
        core::CompileOptions opt;
        opt.batch = wc.batch;
        session_->compile(network_, opt);
    });
    ORION_CHECK(compiled().batch == wc.batch,
                wc.name << ": compiled batch " << compiled().batch
                        << " != configured " << wc.batch);
    times_.prepare_ms = time_ms([&] {
        TELEM_SPAN("setup.prepare");
        (void)session_->prepared();
    });
    times_.keygen_ms = time_ms([&] {
        TELEM_SPAN("setup.keygen");
        for (int o = 0; o < wc.bundles; ++o) {
            auto owner = std::make_unique<Owner>();
            owner->client = std::make_unique<serve::ServeClient>(
                compiled(), context(), seed * 64 + static_cast<u64>(o) + 1);
            owners_.push_back(std::move(owner));
        }
    });
    times_.bundle_ms = time_ms([&] {
        TELEM_SPAN("setup.bundle");
        for (auto& owner : owners_) owner->bundle = owner->client->key_bundle();
    });
    times_.server_ms = time_ms([&] {
        TELEM_SPAN("setup.server");
        serve::ServeOptions sopts;
        sopts.max_inflight = wc.workers;
        sopts.queue_capacity = 64;
        sopts.threads_per_request = wc.threads_per_request;
        sopts.key_cache_mb = 0;
        if (wc.hot_set > 0) {
            // Cap the cache at the hot set's expanded keys, as
            // bench_serve --churn does: cold sessions spill and reload.
            const serve::KeyBundle kb =
                serve::decode_key_bundle(owners_[0]->bundle, context());
            const std::size_t per_session =
                kb.relin.byte_size() + kb.galois.byte_size();
            sopts.key_cache_mb = static_cast<int>(
                                     (static_cast<std::size_t>(wc.hot_set) *
                                      per_session) >>
                                     20) +
                                 2;
            sopts.key_spill_dir = spill_dir_;
        }
        server_ = session_->serve(sopts);
        endpoint_ =
            std::make_unique<net::ServeEndpoint>(*server_, net::Listener(0));
        for (int c = 0; c < wc.connections; ++c) {
            conns_.push_back(
                net::Conn::connect("127.0.0.1", endpoint_->port(), 5.0));
        }
    });
    for (int r = 0; r < wc.sessions; ++r) {
        auto slot = std::make_unique<SessionSlot>();
        const auto r0 = Clock::now();
        {
            TELEM_SPAN_ID("setup.register", r);
            slot->token = register_owner(
                conns_[0], static_cast<std::size_t>(r % wc.bundles));
        }
        times_.register_ms.push_back(ms_between(r0, Clock::now()));
        sessions_.push_back(std::move(slot));
    }
    times_.total_s = ms_between(t0, Clock::now()) / 1e3;
}

Stack::~Stack()
{
    conns_.clear();
    if (endpoint_) endpoint_->stop();
    endpoint_.reset();
    server_.reset();
    if (!spill_dir_.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(spill_dir_, ec);
    }
}

const core::CompiledNetwork&
Stack::compiled() const
{
    return session_->compiled();
}

net::Frame
Stack::rpc(net::Conn& conn, net::MsgType type, std::span<const u8> payload,
           net::MsgType expect)
{
    constexpr double kIoTimeoutS = 120.0;
    const u64 corr = next_corr_.fetch_add(1);
    net::Frame reply;
    try {
        net::send_frame(conn, type, corr, payload, kIoTimeoutS);
        reply = net::recv_frame(conn, kIoTimeoutS);
    } catch (const std::exception& e) {
        throw WireFailure(false, std::string("transport: ") + e.what());
    }
    if (reply.type == net::MsgType::kError) {
        const net::WireError err = net::decode_error(reply.payload);
        throw WireFailure(true, std::string("server error ") +
                                    net::to_string(err.code) + ": " +
                                    err.message);
    }
    if (reply.type != expect || reply.corr != corr) {
        throw WireFailure(false, std::string("unexpected reply frame ") +
                                     net::to_string(reply.type));
    }
    return reply;
}

u64
Stack::register_owner(net::Conn& conn, std::size_t o)
{
    const u64 token = next_token_.fetch_add(1);
    const net::Frame reply =
        rpc(conn, net::MsgType::kRegister,
            net::encode_register(token, owners_[o]->bundle),
            net::MsgType::kRegisterOk);
    if (net::decode_u64(reply.payload) != token) {
        throw WireFailure(false, "registration echoed the wrong token");
    }
    return token;
}

void
Stack::unregister(net::Conn& conn, u64 token)
{
    const net::Frame reply = rpc(conn, net::MsgType::kUnregister,
                                 net::encode_u64(token),
                                 net::MsgType::kUnregisterOk);
    // [u64 token][u8 was_known]: the session must have been live.
    if (reply.payload.size() != 9 || reply.payload[8] != 1) {
        throw WireFailure(false, "unregister: token was not registered");
    }
}

}  // namespace orion::e2e
