#ifndef ORION_SRC_NET_CLIENT_H_
#define ORION_SRC_NET_CLIENT_H_

/**
 * @file
 * net::NetClient — the socket-backed mode of the serving client. It owns
 * a serve::ServeClient (all key material and crypto stay client-side) and
 * a blocking Conn to either a ServeEndpoint or a Router; the two are
 * indistinguishable on the wire, which is the point.
 *
 * Reliability contract (what ISSUE 9 calls "connect/request retry with
 * capped exponential backoff"):
 *  - connect() retries the TCP dial with exponential backoff
 *    (base * 2^attempt, capped) up to max_attempts.
 *  - infer() resends on *retryable* wire errors (overloaded, shard_down,
 *    shutting_down) after the same backoff schedule, re-registers the key
 *    bundle first when the error says needs_reregister (unknown_session —
 *    the router failover path), and transparently reconnects on link
 *    timeouts/disconnects. Exhausted attempts throw serve::RequestError
 *    with the last error's mapped kind; permanent wire errors throw
 *    immediately.
 *
 * The session is named by a client-chosen nonzero 64-bit token (see
 * endpoint.h); NetClient stamps it into the ServeClient so every Request
 * record carries it.
 */

#include "src/net/frame.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace orion::net {

struct ClientOptions {
    double connect_timeout_s = 2.0;  ///< per TCP dial attempt
    double io_timeout_s = 60.0;      ///< per frame send/recv (FHE is slow)
    int max_attempts = 8;            ///< dial / resend attempts
    double backoff_base_s = 0.05;    ///< first retry delay
    double backoff_cap_s = 2.0;      ///< backoff ceiling
    u64 max_frame_bytes = kDefaultMaxFrameBytes;
};

/** Counters of the reliability machinery (asserted by tests). */
struct RetryStats {
    u64 connects = 0;     ///< successful dials (1 + reconnects)
    u64 reconnects = 0;   ///< dials after a link failure
    u64 retries = 0;      ///< resends after retryable wire errors
    u64 reregisters = 0;  ///< bundle re-sends (failover adoptions)
};

class NetClient {
  public:
    /**
     * Dials host:port (with backoff) and registers `crypto`'s key bundle
     * under `session_token` (nonzero, globally unique per client — e.g.
     * splitmix64 of a client index). `crypto` must outlive the client.
     */
    NetClient(serve::ServeClient& crypto, std::string host, int port,
              u64 session_token, ClientOptions opts = {});
    ~NetClient();

    NetClient(const NetClient&) = delete;
    NetClient& operator=(const NetClient&) = delete;

    /**
     * Encrypt a batch (a single sample is {x}), send, retry per the
     * contract above, decrypt one output per sample.
     */
    std::vector<std::vector<double>> infer(
        const std::vector<std::vector<double>>& inputs);
    /** infer() without the final decrypt: the raw Response record. */
    ckks::serial::Bytes infer_raw(
        const std::vector<std::vector<double>>& inputs);

    Pong ping();
    /** The peer's /metrics-style exposition text. */
    std::string fetch_metrics();
    /** Unregisters the session (best effort) and closes the link. */
    void close();

    u64 token() const { return token_; }
    serve::ServeClient& crypto() { return crypto_; }
    const RetryStats& retry_stats() const { return rstats_; }

  private:
    /** Dials with capped exponential backoff; throws when exhausted. */
    void connect_with_backoff();
    /** (Re-)sends the key bundle; throws on a non-ok reply. */
    void do_register();
    void ensure_connected();
    /** One frame round trip on the live conn; link errors propagate. */
    Frame rpc(MsgType type, std::span<const u8> payload);
    void backoff_sleep(int attempt) const;

    serve::ServeClient& crypto_;
    std::string host_;
    int port_ = 0;
    u64 token_ = 0;
    ClientOptions opts_;
    Conn conn_;
    bool registered_ = false;
    u64 next_corr_ = 1;
    RetryStats rstats_;
};

}  // namespace orion::net

#endif  // ORION_SRC_NET_CLIENT_H_
