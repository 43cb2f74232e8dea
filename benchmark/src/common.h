#ifndef ORION_BENCHMARK_SRC_COMMON_H_
#define ORION_BENCHMARK_SRC_COMMON_H_

/**
 * @file
 * Small helpers shared by the end-to-end benchmark's files: clocks,
 * quantiles, process resource readings and the metric record every
 * workload reports.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "src/common.h"

namespace orion::e2e {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Quantile q in [0, 1] with linear interpolation; 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
mean(const std::vector<double>& v)
{
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** Peak resident set size (VmHWM) of this process in MiB. */
inline double
peak_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::atof(line + 6);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

/** User + system CPU seconds consumed by this process so far. */
inline double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** One reported number: its value, unit and the samples behind it. */
struct Metric {
    double value = 0.0;
    std::string unit;
    u64 samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

}  // namespace orion::e2e

#endif  // ORION_BENCHMARK_SRC_COMMON_H_
