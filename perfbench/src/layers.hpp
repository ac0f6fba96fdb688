// The per-layer metric set of a traced run, shared by every workload so
// each reports the same names in the same order.  A layer a workload does
// not exercise reads 0 there -- that is the "no change" prediction for it.
#pragma once

#include "common.hpp"
#include "trace.hpp"

#include "core/supervisor.hpp"

#include <cstdint>

namespace perfbench {

/// Span names, interned once per process.
struct span_ids {
    std::uint32_t fill_words, fill_tile, transpose, feed_tile, engine_feed,
        software_pass, observe, channel_setup, barrier, battery, capture,
        log_close, device, checkpoint;
    static const span_ids& get();
};

/// Counters read from the program's own reports during the traced run.
struct layer_counters {
    std::uint64_t confirmations = 0;
    std::uint64_t queue_pop_stalls = 0;
    std::uint64_t queue_max_occupancy = 0;
    std::uint64_t steals = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_dropped = 0;
    std::uint64_t sw16_cycles = 0;
};

/// Re-run every offline battery test on the evidence a confirmation just
/// replayed (`sup.checkpoint()`'s evidence ring) inside probe spans:
/// nist.battery with one child per test, nested in a core.checkpoint probe
/// that also covers taking the checkpoint and unpacking the evidence.
void probe_battery(const otf::core::supervisor& sup, double alpha,
                   std::uint64_t unit);

/// Append every per-layer metric.  `traced_wall_s` is the wall time of the
/// traced re-drive, probes included; `untraced_wall_s` that of the same
/// re-drive without spans.
void add_layer_metrics(result& r, const trace::summary& s,
                       double traced_wall_s, double untraced_wall_s,
                       const layer_counters& c);

} // namespace perfbench
