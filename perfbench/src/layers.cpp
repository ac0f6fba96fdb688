#include "layers.hpp"

#include "nist/battery.hpp"

namespace perfbench {

const span_ids& span_ids::get()
{
    static const span_ids ids{
        trace::intern("trng.fill_words"),
        trace::intern("trng.fill_tile"),
        trace::intern("base.transpose_64x64"),
        trace::intern("hw.feed_tile"),
        trace::intern("hw.engine_feed"),
        trace::intern("core.software_pass"),
        trace::intern("core.observe"),
        trace::intern("core.channel_setup"),
        trace::intern("core.barrier"),
        trace::intern("nist.battery"),
        trace::intern("core.capture"),
        trace::intern("core.telemetry_log.close"),
        trace::intern("core.device"),
        trace::intern("core.checkpoint"),
    };
    return ids;
}

namespace {

std::uint32_t test_span(const otf::nist::battery_test& t)
{
    return trace::intern("nist.battery." + metric_token(t.name));
}

/// Layers whose self times partition the traced wall time (probes and the
/// per-unit core.device spans are not among them: a unit's own self time
/// is loop bookkeeping and lands in unattributed_frac).
const char* const additive_layers[] = {
    "trng.fill_words",   "trng.fill_tile",     "hw.feed_tile",
    "hw.engine_feed",    "core.software_pass", "core.observe",
    "core.channel_setup", "core.barrier",      "core.capture",
    "core.telemetry_log.close",
};

double lookup(const std::map<std::string, double>& m, const std::string& k)
{
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void probe_battery(const otf::core::supervisor& sup, double alpha,
                   std::uint64_t unit)
{
    const span_ids& id = span_ids::get();
    const trace::scope evidence(id.checkpoint, unit, true);
    const otf::core::supervisor_checkpoint cp = sup.checkpoint();
    otf::bit_sequence seq;
    for (const auto& window : cp.evidence_ring) {
        for (const std::uint64_t word : window.words) {
            for (unsigned i = 0; i < 64; ++i) {
                seq.push_back(((word >> i) & 1u) != 0);
            }
        }
    }
    const trace::scope whole(id.battery, unit, true);
    for (const otf::nist::battery_test& t : otf::nist::battery_tests()) {
        if (seq.size() < t.min_length) {
            continue;
        }
        const trace::scope one(test_span(t), unit, true);
        otf::nist::battery_report report;
        t.run(seq, alpha, report);
    }
}

void add_layer_metrics(result& r, const trace::summary& s,
                       double traced_wall_s, double untraced_wall_s,
                       const layer_counters& c)
{
    const double wall = traced_wall_s - s.probe_s;
    double attributed = 0.0;
    for (const char* layer : additive_layers) {
        attributed += lookup(s.self_s, layer);
    }
    const auto self = [&](const char* layer) {
        return lookup(s.self_s, layer);
    };
    const auto total = [&](const std::string& layer) {
        const auto it = s.durations_s.find(layer);
        double sum = 0.0;
        if (it != s.durations_s.end()) {
            for (const double d : it->second) {
                sum += d;
            }
        }
        return sum;
    };
    const auto calls = [&](const char* layer) {
        const auto it = s.calls.find(layer);
        return it == s.calls.end() ? 0.0 : static_cast<double>(it->second);
    };

    r.add("trng.fill_words.s", self("trng.fill_words"), "s");
    r.add("trng.fill_tile.s", self("trng.fill_tile"), "s");
    r.add("base.transpose_64x64.s", total("base.transpose_64x64"), "s");
    r.add("hw.feed_tile.s", self("hw.feed_tile"), "s");
    r.add("hw.engine_feed.s", self("hw.engine_feed"), "s");
    r.add("core.software_pass.s", self("core.software_pass"), "s");
    r.add("core.software_pass.calls", calls("core.software_pass"), "count");
    r.add("core.observe.s", self("core.observe"), "s");
    r.add("core.channel_setup.s", self("core.channel_setup"), "s");
    r.add("core.barrier.s", self("core.barrier"), "s");
    r.add("core.barrier.confirmations",
          static_cast<double>(c.confirmations), "count");
    r.add("nist.battery.s", total("nist.battery"), "s");
    for (const otf::nist::battery_test& t : otf::nist::battery_tests()) {
        const std::string name = "nist.battery." + metric_token(t.name);
        r.add(name + ".s", total(name), "s");
    }
    std::vector<double> units_ms;
    const auto dev = s.durations_s.find("core.device");
    if (dev != s.durations_s.end()) {
        for (const double d : dev->second) {
            units_ms.push_back(d * 1e3);
        }
    }
    r.add("core.device.ms_p50", quantile(units_ms, 0.50), "ms");
    r.add("core.device.ms_p99", quantile(units_ms, 0.99), "ms");
    r.add("core.device.count", static_cast<double>(units_ms.size()),
          "count");
    r.add("core.capture.s", self("core.capture"), "s");
    r.add("core.telemetry_log.close.s", self("core.telemetry_log.close"),
          "s");
    r.add("base.event_queue.pop_stalls",
          static_cast<double>(c.queue_pop_stalls), "count");
    r.add("base.event_queue.max_occupancy",
          static_cast<double>(c.queue_max_occupancy), "count");
    r.add("base.work_deque.steals", static_cast<double>(c.steals), "count");
    r.add("base.wal.bytes", static_cast<double>(c.wal_bytes), "bytes");
    r.add("base.wal.records", static_cast<double>(c.wal_records), "count");
    r.add("base.wal.dropped", static_cast<double>(c.wal_dropped), "count");
    r.add("sw16.cycles", static_cast<double>(c.sw16_cycles), "cycles");
    r.add("traced_wall_s", wall, "s");
    r.add("unattributed_frac", wall > 0.0 ? (wall - attributed) / wall : 0.0,
          "frac");
    r.add("trace_overhead_frac",
          untraced_wall_s > 0.0 ? (wall - untraced_wall_s) / untraced_wall_s
                                : 0.0,
          "frac");
}

} // namespace perfbench
