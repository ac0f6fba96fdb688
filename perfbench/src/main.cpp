// otf_perfbench: runs one benchmark workload and prints its result as one
// JSON document on standard output.
//
//   otf_perfbench --workload <population|fleet-tile|supervised-stream>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>] [--corrupt]
//
// Untraced runs report the end-to-end metrics; traced runs re-drive the
// same work units with spans around each layer's public entry points and
// report the per-layer metrics.  perfbench/run.py builds this program and
// wraps its output; see perfbench/README.md.
#include "common.hpp"
#include "trace.hpp"

#include "base/bits.hpp"
#include "base/json.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t mix_seed(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string metric_token(const std::string& label)
{
    std::string out;
    for (const char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else if (!out.empty() && out.back() != '_') {
            out += '_';
        }
    }
    while (!out.empty() && out.back() == '_') {
        out.pop_back();
    }
    return out;
}

unsigned compute_threads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "otf_perfbench: %s\nusage: otf_perfbench --workload "
                 "<population|fleet-tile|supervised-stream> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--corrupt]\n",
                 why);
    std::exit(2);
}

const char* kernel_name(otf::bits::kernel_variant v)
{
    switch (v) {
    case otf::bits::kernel_variant::reference:
        return "reference";
    case otf::bits::kernel_variant::portable:
        return "portable";
    case otf::bits::kernel_variant::simd:
        return "simd";
    }
    return "?";
}

void write_metrics(otf::json_writer& json, std::string_view key,
                   const std::vector<metric>& metrics)
{
    json.begin_object(key);
    for (const metric& m : metrics) {
        json.begin_object(m.name);
        json.value("value", m.value);
        json.value("unit", m.unit);
        json.end_object();
    }
    json.end_object();
}

} // namespace

int main(int argc, char** argv)
{
    options opt;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = next();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(next());
                have_seed = true;
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(next());
            } else if (arg == "--trace") {
                const std::string v = next();
                if (v != "0" && v != "1") {
                    usage("--trace takes 0 or 1");
                }
                opt.trace = v == "1";
                have_trace = true;
            } else if (arg == "--scratch") {
                opt.scratch = next();
            } else if (arg == "--corrupt") {
                opt.corrupt = true;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_seed || !have_trace || !(opt.seconds > 0.0)) {
        usage("--seed, --trace and a positive --seconds are required");
    }

    result r;
    try {
        if (opt.workload == "population") {
            r = run_population(opt);
        } else if (opt.workload == "fleet-tile") {
            r = run_fleet_tile(opt);
        } else if (opt.workload == "supervised-stream") {
            r = run_supervised_stream(opt);
        } else {
            usage("unknown workload");
        }
        if (opt.trace) {
            trace::write_csv(opt.scratch + "/trace-" + opt.workload
                             + ".csv");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "otf_perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    otf::json_writer json;
    json.begin_object();
    json.value("workload", opt.workload);
    json.value("seed", opt.seed);
    json.value("trace", opt.trace);
    json.value("correct", r.correct);
    json.value("attempted", r.attempted);
    json.value("failed", r.failed);
    json.value("operation", r.operation);
    write_metrics(json, "metrics", r.metrics);
    write_metrics(json, "details", r.details);
    json.begin_object("info");
    for (const auto& [k, v] : r.info) {
        json.value(k, v);
    }
    json.end_object();
    json.begin_object("build");
    json.value("compiler", PERFBENCH_COMPILER);
    json.value("build_type", PERFBENCH_BUILD_TYPE);
    json.value("cxx_flags", PERFBENCH_CXX_FLAGS);
    json.value("simd_compiled", otf::bits::simd_compiled());
    json.value("kernel_variant",
               kernel_name(otf::bits::active_kernel_variant()));
    json.value("hardware_concurrency", compute_threads());
    json.end_object();
    json.end_object();
    std::fputs(json.str().c_str(), stdout);
    return 0;
}
