#include "src/net/client.h"

#include <thread>

namespace orion::net {

namespace {

serve::ErrorKind
to_error_kind(ErrCode code)
{
    switch (code) {
    case ErrCode::kOverloaded:
    case ErrCode::kShardDown:
    case ErrCode::kShuttingDown:
        return serve::ErrorKind::kOverloaded;
    case ErrCode::kUnknownSession:
    case ErrCode::kBadSession:
        return serve::ErrorKind::kBadSession;
    case ErrCode::kDecodeError:
    case ErrCode::kBadFrame:
        return serve::ErrorKind::kDecodeError;
    case ErrCode::kExecError:
        return serve::ErrorKind::kExecError;
    case ErrCode::kInternal:
        break;
    }
    return serve::ErrorKind::kExecError;
}

}  // namespace

NetClient::NetClient(serve::ServeClient& crypto, std::string host, int port,
                     u64 session_token, ClientOptions opts)
    : crypto_(crypto),
      host_(std::move(host)),
      port_(port),
      token_(session_token),
      opts_(opts)
{
    ORION_CHECK(token_ != 0, "session token 0 is reserved");
    crypto_.set_session_id(token_);
    connect_with_backoff();
    do_register();
}

NetClient::~NetClient()
{
    try {
        close();
    } catch (...) {
        // Destructors don't throw; the conn closes either way.
    }
}

void
NetClient::backoff_sleep(int attempt) const
{
    double delay = opts_.backoff_base_s;
    for (int i = 0; i < attempt && delay < opts_.backoff_cap_s; ++i) {
        delay *= 2.0;
    }
    delay = std::min(delay, opts_.backoff_cap_s);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

void
NetClient::connect_with_backoff()
{
    std::string last;
    for (int attempt = 0; attempt < opts_.max_attempts; ++attempt) {
        if (attempt > 0) backoff_sleep(attempt - 1);
        try {
            conn_ = Conn::connect(host_, port_, opts_.connect_timeout_s);
            if (rstats_.connects > 0) ++rstats_.reconnects;
            ++rstats_.connects;
            return;
        } catch (const std::exception& e) {
            last = e.what();
        }
    }
    ORION_CHECK(false, "could not connect to "
                           << host_ << ":" << port_ << " after "
                           << opts_.max_attempts << " attempts (last: "
                           << last << ")");
}

Frame
NetClient::rpc(MsgType type, std::span<const u8> payload)
{
    const u64 corr = next_corr_++;
    send_frame(conn_, type, corr, payload, opts_.io_timeout_s);
    for (;;) {
        Frame f = recv_frame(conn_, opts_.io_timeout_s,
                             opts_.max_frame_bytes);
        if (f.corr == corr) return f;
        // A stale reply to an abandoned correlation id (e.g. a response
        // that raced a retry). Drop it and keep waiting for ours.
    }
}

void
NetClient::do_register()
{
    const ckks::serial::Bytes bundle = crypto_.key_bundle();
    Frame f = rpc(MsgType::kRegister, encode_register(token_, bundle));
    if (f.type == MsgType::kRegisterOk) {
        ORION_CHECK(decode_u64(f.payload) == token_,
                    "register ack names a different session token");
        registered_ = true;
        return;
    }
    if (f.type == MsgType::kError) {
        const WireError we = decode_error(f.payload);
        throw serve::RequestError(
            to_error_kind(we.code),
            std::string("registration failed (") + to_string(we.code) +
                "): " + we.message);
    }
    ORION_CHECK(false,
                "unexpected reply to register: " << to_string(f.type));
}

void
NetClient::ensure_connected()
{
    if (conn_.valid()) return;
    connect_with_backoff();
    // A fresh TCP connection does not lose the session (the peer keys it
    // by token, not by conn), but registration state is only known-good
    // once one register round trip succeeded on *some* conn.
    if (!registered_) do_register();
}

ckks::serial::Bytes
NetClient::infer_raw(const std::vector<std::vector<double>>& inputs)
{
    const ckks::serial::Bytes request = crypto_.make_request_batch(inputs);
    std::string last_msg = "no attempts made";
    ErrCode last_code = ErrCode::kInternal;
    bool saw_wire_error = false;
    for (int attempt = 0; attempt < opts_.max_attempts; ++attempt) {
        if (attempt > 0) backoff_sleep(attempt - 1);
        try {
            ensure_connected();
            Frame f = rpc(MsgType::kRequest, request);
            if (f.type == MsgType::kResponse) return std::move(f.payload);
            ORION_CHECK(f.type == MsgType::kError,
                        "unexpected reply to request: "
                            << to_string(f.type));
            const WireError we = decode_error(f.payload);
            last_msg = we.message;
            last_code = we.code;
            saw_wire_error = true;
            if (needs_reregister(we.code)) {
                // Failover: this peer has no keys for the token (the
                // router re-placed the session). Re-send the bundle and
                // retry the same request without burning a backoff.
                registered_ = false;
                do_register();
                ++rstats_.reregisters;
                ++rstats_.retries;
                continue;
            }
            if (retryable(we.code)) {
                ++rstats_.retries;
                continue;
            }
            throw serve::RequestError(
                to_error_kind(we.code),
                std::string("request failed (") + to_string(we.code) +
                    "): " + we.message);
        } catch (const TimeoutError& e) {
            conn_.close();
            last_msg = e.what();
            saw_wire_error = false;
        } catch (const DisconnectError& e) {
            conn_.close();
            last_msg = e.what();
            saw_wire_error = false;
        }
    }
    const serve::ErrorKind kind = saw_wire_error
                                      ? to_error_kind(last_code)
                                      : serve::ErrorKind::kOverloaded;
    std::ostringstream oss;
    oss << "request gave up after " << opts_.max_attempts
        << " attempts (last: " << last_msg << ")";
    throw serve::RequestError(kind, oss.str());
}

std::vector<std::vector<double>>
NetClient::infer(const std::vector<std::vector<double>>& inputs)
{
    const ckks::serial::Bytes response = infer_raw(inputs);
    return crypto_.decrypt_response_batch(response,
                                          static_cast<int>(inputs.size()));
}

Pong
NetClient::ping()
{
    ensure_connected();
    Frame f = rpc(MsgType::kPing, {});
    ORION_CHECK(f.type == MsgType::kPong,
                "unexpected reply to ping: " << to_string(f.type));
    return decode_pong(f.payload);
}

std::string
NetClient::fetch_metrics()
{
    ensure_connected();
    Frame f = rpc(MsgType::kMetrics, {});
    ORION_CHECK(f.type == MsgType::kMetricsText,
                "unexpected reply to metrics: " << to_string(f.type));
    return decode_text(f.payload);
}

void
NetClient::close()
{
    if (conn_.valid() && registered_) {
        try {
            (void)rpc(MsgType::kUnregister, encode_u64(token_));
        } catch (...) {
            // Best effort; the server's session GC handles the rest.
        }
    }
    registered_ = false;
    conn_.close();
}

}  // namespace orion::net
