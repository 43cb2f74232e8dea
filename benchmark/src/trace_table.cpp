#include "benchmark/src/trace_table.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

namespace orion::e2e {

namespace {

struct Span {
    const telemetry::TraceRecord* rec = nullptr;
    u64 t0 = 0, t1 = 0;
    std::vector<std::size_t> children;
    bool chain = false;
};

bool
named(const Span& s, const char* name)
{
    return std::strcmp(s.rec->event.name, name) == 0;
}

/** Length of the union of [a, b) intervals, clipped to [lo, hi). */
u64
covered(std::vector<std::pair<u64, u64>> iv, u64 lo, u64 hi)
{
    std::sort(iv.begin(), iv.end());
    u64 total = 0;
    u64 end = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, end);
        b = std::min(b, hi);
        if (b > a) {
            total += b - a;
            end = b;
        }
    }
    return total;
}

void
mark_chain(std::vector<Span>& spans, std::size_t i)
{
    spans[i].chain = true;
    for (std::size_t c : spans[i].children) mark_chain(spans, c);
}

std::vector<LayerRow>
rows_of(const std::map<std::string, LayerRow>& m)
{
    std::vector<LayerRow> out;
    for (const auto& [name, row] : m) out.push_back(row);
    std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
        return a.self_ms > b.self_ms;
    });
    return out;
}

}  // namespace

TraceTable
analyze_trace(const std::vector<telemetry::TraceRecord>& events,
              const std::vector<RequestRecord>& requests)
{
    std::vector<Span> spans;
    spans.reserve(events.size());
    for (const telemetry::TraceRecord& r : events) {
        spans.push_back({&r, r.event.t0_ns, r.event.t0_ns + r.event.dur_ns,
                         {}, false});
    }
    // Same-thread nesting: sort each thread's spans by start (outer first)
    // and keep a stack of the open ones.
    std::map<int, std::vector<std::size_t>> by_thread;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        by_thread[spans[i].rec->tid].push_back(i);
    }
    std::vector<bool> is_root(spans.size(), false);
    for (auto& [tid, idx] : by_thread) {
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return spans[a].t0 != spans[b].t0 ? spans[a].t0 < spans[b].t0
                                              : spans[a].t1 > spans[b].t1;
        });
        std::vector<std::size_t> open;
        for (std::size_t i : idx) {
            while (!open.empty() && spans[open.back()].t1 <= spans[i].t0) {
                open.pop_back();
            }
            if (open.empty()) {
                is_root[i] = true;
            } else {
                spans[open.back()].children.push_back(i);
            }
            open.push_back(i);
        }
    }

    // Cross-thread: each serve.execute root belongs to the net.rpc span of
    // the request the client stamped with that id and whose interval
    // contains it; the serve.decode just before it on its thread too. Ids
    // count per client, so with several clients the one whose reported
    // execute time matches the span's length wins.
    std::unordered_map<i64, const RequestRecord*> req_of;
    for (const RequestRecord& r : requests) req_of[r.index] = &r;
    std::unordered_multimap<u64, std::size_t> rpc_by_server_id;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!named(spans[i], "net.rpc")) continue;
        const auto it = req_of.find(spans[i].rec->event.arg);
        if (it != req_of.end()) {
            rpc_by_server_id.emplace(it->second->server_request_id, i);
        }
    }
    std::vector<bool> rpc_matched(spans.size(), false);
    for (auto& [tid, idx] : by_thread) {
        std::size_t pending_decode = spans.size();
        for (std::size_t i : idx) {
            if (!is_root[i]) continue;
            if (named(spans[i], "serve.decode")) {
                pending_decode = i;
                continue;
            }
            if (!named(spans[i], "serve.execute")) continue;
            const double dur_ms = 1e-6 * static_cast<double>(spans[i].t1 -
                                                             spans[i].t0);
            std::size_t best = spans.size();
            double best_diff = INFINITY;
            const auto range = rpc_by_server_id.equal_range(
                static_cast<u64>(spans[i].rec->event.arg));
            for (auto it = range.first; it != range.second; ++it) {
                const Span& rpc = spans[it->second];
                if (rpc_matched[it->second] || spans[i].t0 < rpc.t0 ||
                    rpc.t1 < spans[i].t1) {
                    continue;
                }
                const double diff = std::abs(
                    req_of.at(rpc.rec->event.arg)->execute_ms - dur_ms);
                if (diff < best_diff) {
                    best = it->second;
                    best_diff = diff;
                }
            }
            if (best < spans.size()) {
                rpc_matched[best] = true;
                spans[best].children.push_back(i);
                if (pending_decode < spans.size() &&
                    spans[best].t0 <= spans[pending_decode].t0) {
                    spans[best].children.push_back(pending_decode);
                }
            }
            pending_decode = spans.size();
        }
    }

    TraceTable t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!is_root[i] || !named(spans[i], "bench.request")) continue;
        if (req_of.count(spans[i].rec->event.arg) == 0) continue;
        mark_chain(spans, i);
    }
    std::map<std::string, LayerRow> chain, off;
    double chain_layer_ms = 0.0;
    for (const Span& s : spans) {
        std::vector<std::pair<u64, u64>> iv;
        for (std::size_t c : s.children) {
            iv.emplace_back(spans[c].t0, spans[c].t1);
        }
        const double self_ms =
            1e-6 * static_cast<double>((s.t1 - s.t0) - covered(iv, s.t0, s.t1));
        LayerRow& row = (s.chain ? chain : off)[s.rec->event.name];
        row.name = s.rec->event.name;
        row.spans += 1;
        row.self_ms += self_ms;
        if (s.chain && !named(s, "bench.request")) chain_layer_ms += self_ms;
    }
    for (const RequestRecord& r : requests) {
        t.latency_ms += r.latency_ms();
        t.lateness_ms += r.lateness_ms();
    }
    t.requests = requests.size();
    t.coverage = t.latency_ms > 0.0
                     ? (chain_layer_ms + t.lateness_ms) / t.latency_ms
                     : 0.0;
    t.chain = rows_of(chain);
    t.off_chain = rows_of(off);
    return t;
}

std::string
format_trace_table(const TraceTable& t)
{
    std::ostringstream os;
    char line[160];
    const double n = static_cast<double>(std::max<u64>(t.requests, 1));
    std::snprintf(line, sizeof(line), "%-28s %8s %14s %10s\n", "layer (span)",
                  "spans", "self ms/req", "share");
    os << line;
    const auto emit = [&](const LayerRow& r) {
        std::snprintf(line, sizeof(line), "%-28s %8llu %14.3f %9.1f%%\n",
                      r.name.c_str(), static_cast<unsigned long long>(r.spans),
                      r.self_ms / n,
                      t.latency_ms > 0.0 ? 100.0 * r.self_ms / t.latency_ms
                                         : 0.0);
        os << line;
    };
    emit({"gen.wait (due -> send)", t.requests, t.lateness_ms});
    for (const LayerRow& r : t.chain) emit(r);
    std::snprintf(line, sizeof(line),
                  "blocking chain covers %.1f%% of %.3f ms mean latency "
                  "over %llu requests\n",
                  100.0 * t.coverage, t.latency_ms / n,
                  static_cast<unsigned long long>(t.requests));
    os << line << "off the blocking chain (kernel pool threads, "
                  "endpoint loop, setup):\n";
    for (const LayerRow& r : t.off_chain) emit(r);
    return os.str();
}

}  // namespace orion::e2e
