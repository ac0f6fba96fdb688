// Shared plumbing of the benchmark program: options, the result record each
// workload fills in, small statistics helpers and the seed mixer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using clock = std::chrono::steady_clock;

inline double seconds_between(clock::time_point a, clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(clock::time_point start)
{
    return seconds_between(start, clock::now());
}

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /// Directory for files a workload writes (telemetry segments, span
    /// dumps); created by the caller.
    std::string scratch = ".";
    /// Self-test: deliberately corrupt one output before it is checked;
    /// the run must then report it as failed.
    bool corrupt = false;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload reports.  `metrics` is the contract set (end-to-end
/// metrics untraced, per-layer metrics traced); `details` carries the
/// workload-specific figures (latency percentiles with their sample
/// counts, behaviour guards) and `info` the resolved configuration.
struct result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// What one attempted operation is, e.g. "device runs".
    std::string operation;
    std::vector<metric> metrics;
    std::vector<metric> details;
    std::vector<std::pair<std::string, std::string>> info;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void detail(std::string name, double value, std::string unit)
    {
        details.push_back({std::move(name), value, std::move(unit)});
    }
    /// Record `tried` operations whose outputs were checked, `bad` of
    /// them wrong (a wrong output makes the run incorrect).
    void count(std::uint64_t tried, std::uint64_t bad)
    {
        attempted += tried;
        failed += bad;
        if (bad != 0) {
            correct = false;
        }
    }
    /// Record `tried` operations that threw and delivered no output.
    void lose(std::uint64_t tried)
    {
        attempted += tried;
        failed += tried;
    }
};

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// splitmix64 step: derives every generated input from the workload seed.
std::uint64_t mix_seed(std::uint64_t& state);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Metric-name form of a test or layer label: lowercase, every run of
/// other characters collapsed to one '_'.
std::string metric_token(const std::string& label);

/// Compute threads the workloads may use (std::thread::hardware_concurrency,
/// at least 1).
unsigned compute_threads();

result run_population(const options& opt);
result run_fleet_tile(const options& opt);
result run_supervised_stream(const options& opt);

} // namespace perfbench
