#ifndef ORION_BENCHMARK_SRC_STACK_H_
#define ORION_BENCHMARK_SRC_STACK_H_

/**
 * @file
 * The benchmark's workloads and the deployment each one measures: a CKKS
 * context, the compiled program, an InferenceServer behind an in-process
 * net::ServeEndpoint on loopback, the data owners' clients and the
 * sessions they registered over the wire.
 */

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "benchmark/src/common.h"
#include "src/core/orion.h"
#include "src/net/endpoint.h"
#include "src/net/frame.h"

namespace orion::e2e {

/** Everything that defines one workload (see README.md for the why). */
struct WorkloadConfig {
    std::string name;
    std::string model;
    std::string params_name;
    ckks::CkksParams params;
    int l_eff = 0;
    int batch = 1;  ///< compiled batch (CompileOptions::batch)
    int workers = 1;
    int threads_per_request = 1;
    int connections = 1;  ///< request connections to the endpoint
    int sessions = 1;     ///< registered at setup
    int bundles = 1;      ///< distinct key sets behind those sessions
    /** Sessions whose keys the capped key cache holds; 0 = no cap. */
    int hot_set = 0;
    bool open_loop = false;
    /** Largest allowed |encrypted - cleartext| over any output logit. */
    double error_ceiling = 0.0;
    /** The p90 latency limit behind slo_rate_per_s. */
    double latency_limit_ms = 0.0;
    nn::Network (*make_network)() = nullptr;
};

/** Every workload this benchmark defines. */
const std::vector<WorkloadConfig>& workloads();
/** The named workload; throws an Error naming the valid ones. */
const WorkloadConfig& workload(const std::string& name);

/** Wall time of each setup step of one Stack. */
struct SetupTimes {
    double context_ms = 0.0;
    double compile_ms = 0.0;
    double prepare_ms = 0.0;
    double keygen_ms = 0.0;  ///< all data owners' key generation
    double bundle_ms = 0.0;  ///< all key_bundle() serializations
    double server_ms = 0.0;  ///< server + endpoint + connections
    std::vector<double> register_ms;  ///< one per setup registration
    double total_s = 0.0;
};

/** A failed wire exchange, classified for the failure ledger. */
struct WireFailure : Error {
    WireFailure(bool typed, const std::string& msg) : Error(msg), typed(typed)
    {
    }
    bool typed;  ///< the server answered with a typed kError frame
};

/**
 * One deployment of a workload. Building it is what setup_s times;
 * destroying it stops the endpoint and removes its key spill files.
 */
class Stack {
  public:
    Stack(const WorkloadConfig& wc, u64 seed, std::string spill_dir);
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;

    /** One data owner: a client holding one secret, and its bundle. */
    struct Owner {
        std::unique_ptr<serve::ServeClient> client;
        ckks::serial::Bytes bundle;
        /** The id the client stamps on its next request (ids count from 1). */
        u64 next_request_id = 1;
        std::mutex mu;  ///< ServeClient is not thread-safe
    };
    /** One session rank: its live token; churn takes the lock exclusively. */
    struct SessionSlot {
        u64 token = 0;
        std::shared_mutex mu;
    };

    const WorkloadConfig& config() const { return wc_; }
    const nn::Network& network() const { return network_; }
    const core::CompiledNetwork& compiled() const;
    const ckks::Context& context() const { return session_->context(); }
    serve::InferenceServer& server() { return *server_; }
    const SetupTimes& times() const { return times_; }
    std::size_t bundle_bytes() const { return owners_[0]->bundle.size(); }

    Owner& owner(std::size_t i) { return *owners_[i]; }
    SessionSlot& session(std::size_t rank) { return *sessions_[rank]; }
    net::Conn& conn(std::size_t i) { return conns_[i]; }

    /**
     * Registers owner `o`'s bundle under a fresh token over `conn`;
     * returns the token. Throws WireFailure when refused.
     */
    u64 register_owner(net::Conn& conn, std::size_t o);
    /** Unregisters `token` over `conn`; throws WireFailure when refused. */
    void unregister(net::Conn& conn, u64 token);
    /** One frame round trip; a kError reply throws a typed WireFailure. */
    net::Frame rpc(net::Conn& conn, net::MsgType type,
                   std::span<const u8> payload, net::MsgType expect);

  private:
    const WorkloadConfig& wc_;
    std::string spill_dir_;
    nn::Network network_;
    std::unique_ptr<Session> session_;
    std::vector<std::unique_ptr<Owner>> owners_;
    std::unique_ptr<serve::InferenceServer> server_;
    std::unique_ptr<net::ServeEndpoint> endpoint_;
    std::vector<net::Conn> conns_;
    std::vector<std::unique_ptr<SessionSlot>> sessions_;
    std::atomic<u64> next_token_{1};
    std::atomic<u64> next_corr_{1};
    SetupTimes times_;
};

}  // namespace orion::e2e

#endif  // ORION_BENCHMARK_SRC_STACK_H_
