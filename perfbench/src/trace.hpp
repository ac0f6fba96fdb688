// Span tracing for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer's public entry points; the program itself is not
// instrumented.  Each thread appends to its own in-memory buffer (no
// locking on the hot path); buffers outlive their threads and are
// summarized and written out when the run ends.
//
// A span's self time is its duration minus the part of it its child spans
// cover.  A *probe* span re-runs a piece of work purely to measure it (the
// offline battery test by test, the 64x64 transpose that feed_tile performs
// internally): probes are reported on their own and excluded from the
// traced wall time and from attribution, so they never count twice.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/// Turn span recording on or off (off by default; a disabled scope costs
/// one branch).
void set_enabled(bool on);
bool enabled();

/// Stable id of a span name; resolve ids once, outside hot loops.
std::uint32_t intern(std::string_view name);

/// RAII span on the calling thread.
class scope {
public:
    explicit scope(std::uint32_t name, std::uint64_t unit = 0,
                   bool probe = false);
    ~scope();

    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

private:
    struct thread_buffer* buf_ = nullptr;
    std::uint32_t index_ = 0;
};

/// Per-name totals over every span recorded so far, on all threads.
struct summary {
    std::map<std::string, double> self_s;
    std::map<std::string, std::uint64_t> calls;
    /// Each span's duration less the probes inside it (a probe's own
    /// duration is kept whole).
    std::map<std::string, std::vector<double>> durations_s;
    /// Total duration of probe spans (roots and nested alike).
    double probe_s = 0.0;
};
summary summarize();

/// Write every recorded span as CSV (thread, name, parent, unit, start_ns,
/// end_ns, probe); parent is the row index within the same thread, -1 for
/// a root.
void write_csv(const std::string& path);

} // namespace perfbench::trace
