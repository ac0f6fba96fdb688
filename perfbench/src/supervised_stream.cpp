// Workload "supervised-stream": the paper's deployment -- one TRNG beside
// one testing block -- on one thread.  A core::supervisor runs n=65536
// light, escalating to n=65536 high, over a scheduled attack mix, with a
// core::telemetry_log capturing every window to a segment in the scratch
// directory.  The benchmark drives the fused channel's per-window loop
// itself (barrier, fill_words_available, tap, feed_packed/finish_packed,
// observe), so every window is timed from outside.
//
// Escalated stretches are long enough for the high design's span-engine
// feed to dominate the window step; each attack is confirmed offline on
// eight full windows of evidence (a power-of-two length, the FFT path);
// WAL writes run beside the testing.  The schedule opens with a healthy
// stretch longer than the evidence ring, so every confirmation sees a full
// ring.
//
// Check: each repetition's segment reads back clean, read_telemetry +
// verify_replay re-derive every confirmation bit-identically, the logged
// timeline equals the live one, no record was dropped, and every
// repetition's timeline equals the first.
#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"

#include "core/design_config.hpp"
#include "core/supervisor.hpp"
#include "core/telemetry_log.hpp"
#include "trng/device_profile.hpp"

#include <cstdio>
#include <iterator>
#include <fstream>
#include <optional>

namespace perfbench {

namespace {

using namespace otf;

/// Attack models the light design flags within a few windows at full
/// severity; every repetition runs each once, in an order drawn from the
/// seed, so the amount of work per repetition does not depend on the seed.
const trng::device_kind attack_kinds[] = {
    trng::device_kind::rtn,
    trng::device_kind::fault,
    trng::device_kind::entropy_collapse,
};
constexpr unsigned cycles = std::size(attack_kinds);
constexpr std::uint64_t healthy_windows = 32;
constexpr std::uint64_t attack_windows = 224;
constexpr std::uint64_t windows_per_rep =
    cycles * (healthy_windows + attack_windows);

core::supervisor_config make_config()
{
    core::supervisor_config cfg;
    cfg.baseline = core::paper_design(16, core::tier::light);
    cfg.escalated = core::paper_design(16, core::tier::high);
    cfg.lane = core::ingest_lane::span;
    return cfg;
}

/// The generated schedule: per cycle a healthy stretch, then one attack.
struct schedule {
    std::vector<trng::device_profile> segments; // healthy, attack, ...
    std::vector<std::uint64_t> onsets;          // first attacked window
};

schedule make_schedule(std::uint64_t seed)
{
    schedule s;
    std::uint64_t state = seed;
    std::vector<trng::device_kind> order(std::begin(attack_kinds),
                                         std::end(attack_kinds));
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[mix_seed(state) % i]);
    }
    for (unsigned c = 0; c < cycles; ++c) {
        trng::device_profile healthy;
        healthy.device = 2 * c;
        healthy.seed = mix_seed(state);
        trng::device_profile attack;
        attack.device = 2 * c + 1;
        attack.seed = mix_seed(state);
        attack.kind = order[c];
        attack.peak_severity = 1.0;
        attack.onset_window = 0;
        s.segments.push_back(healthy);
        s.segments.push_back(attack);
        s.onsets.push_back(c * (healthy_windows + attack_windows)
                           + healthy_windows);
    }
    return s;
}

struct prepared {
    std::optional<core::supervisor> sup;
    std::optional<core::telemetry_log> log;
    std::vector<std::unique_ptr<trng::entropy_source>> sources;
};

struct rep_outcome {
    double wall = 0.0;
    std::uint64_t bits = 0;
    std::uint64_t sw16_cycles = 0;
    std::uint64_t confirmations = 0;
    std::vector<double> window_ms;
    std::vector<double> confirm_ms;
    std::vector<core::supervision_event> events;
};

/// One pass over the schedule through the public per-window hooks.
rep_outcome run_schedule(prepared& p, const core::supervisor_config& cfg,
                         std::uint64_t unit)
{
    const span_ids& id = span_ids::get();
    core::supervisor& sup = *p.sup;
    core::monitor& mon = sup.inner();
    const core::window_tap tap = sup.tap();
    const core::window_barrier barrier = sup.barrier();
    std::vector<std::uint64_t> staging;
    rep_outcome out;
    const auto start = clock::now();
    {
        const trace::scope device(id.device, unit);
        for (std::uint64_t w = 0; w < windows_per_rep; ++w) {
            const std::uint64_t cycle_len = healthy_windows + attack_windows;
            const std::size_t segment = 2 * (w / cycle_len)
                + (w % cycle_len >= healthy_windows ? 1 : 0);
            trng::entropy_source& src = *p.sources[segment];

            const auto t0 = clock::now();
            const std::size_t events_before = sup.events().size();
            {
                const trace::scope s(id.barrier, unit);
                barrier(mon.windows_tested());
            }
            const auto t1 = clock::now();
            const bool confirming = sup.events().size() != events_before
                && sup.events().back().kind
                    == core::supervision_event_kind::confirmed;
            if (confirming) {
                ++out.confirmations;
                if (trace::enabled()) {
                    probe_battery(sup, cfg.offline_alpha, unit);
                }
            }
            const auto t2 = clock::now();
            const auto nwords =
                static_cast<std::size_t>(mon.config().n() / 64);
            staging.resize(nwords);
            {
                const trace::scope s(id.fill_words, unit);
                std::size_t filled = 0;
                while (filled < nwords) {
                    const std::size_t got = src.fill_words_available(
                        staging.data() + filled, nwords - filled);
                    if (got == 0) {
                        throw std::runtime_error("source ran dry");
                    }
                    filled += got;
                }
            }
            {
                const trace::scope s(id.capture, unit);
                tap(mon.windows_tested(), staging.data(), nwords);
            }
            {
                const trace::scope s(id.engine_feed, unit);
                mon.feed_packed(staging.data(), nwords, cfg.lane);
            }
            core::window_report wr;
            {
                const trace::scope s(id.software_pass, unit);
                wr = mon.finish_packed();
            }
            {
                const trace::scope s(id.observe, unit);
                sup.observe(wr);
                out.bits += mon.config().n();
                out.sw16_cycles += wr.sw_cycles;
            }
            const auto t3 = clock::now();
            if (confirming) {
                out.confirm_ms.push_back(seconds_between(t0, t1) * 1e3);
            } else {
                // The probe (traced runs only) is not part of the step.
                out.window_ms.push_back(
                    (seconds_between(t0, t1) + seconds_between(t2, t3))
                    * 1e3);
            }
        }
        const trace::scope s(id.log_close, unit);
        p.log->close();
    }
    out.wall = seconds_since(start);
    out.events = sup.events();
    return out;
}

/// Flip one byte in the middle of the segment (the self-test's corrupted
/// output).
void corrupt_file(const std::string& path)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size / 2);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(size / 2);
    f.write(&c, 1);
}

} // namespace

result run_supervised_stream(const options& opt)
{
    result r;
    r.operation = "windows tested plus telemetry records logged";
    const core::supervisor_config cfg = make_config();
    const schedule sched = make_schedule(opt.seed);
    const std::string path = opt.scratch + "/supervised-stream.wal";

    // Set-up: critical-value inversion for both designs, the supervisor,
    // the sources and opening the log on a fresh segment.  Sampled a few
    // times per repetition, so the median spans the whole run.
    constexpr int setups_per_rep = 3;
    std::vector<double> setup;
    const auto prepare = [&] {
        std::remove(path.c_str());
        const auto t0 = clock::now();
        auto p = std::make_unique<prepared>();
        p->sup.emplace(cfg);
        core::telemetry_config tc;
        tc.path = path;
        p->log.emplace(tc);
        p->sup->attach_telemetry(&*p->log);
        for (const trng::device_profile& prof : sched.segments) {
            p->sources.push_back(
                trng::make_device_source(prof, cfg.baseline.n()));
        }
        setup.push_back(seconds_since(t0));
        return p;
    };
    for (int i = 0; i < setups_per_rep; ++i) {
        prepare();
    }

    std::optional<rep_outcome> first;
    std::vector<double> mbps;
    std::vector<double> window_ms;
    std::vector<double> confirm_ms;
    double untraced_wall = 0.0;
    unsigned untraced_passes = 0;
    double traced_wall = 0.0;
    layer_counters counters;
    const auto budget_start = clock::now();
    for (std::uint64_t rep = 0;; ++rep) {
        // Traced runs make exactly three passes -- untraced, traced,
        // untraced -- so every per-layer sum and counter covers one
        // repetition; the overhead baseline is the mean of the untraced
        // passes on either side.
        const bool traced = opt.trace && rep == 1;
        for (int i = 1; i < setups_per_rep; ++i) {
            prepare();
        }
        const std::unique_ptr<prepared> p = prepare();
        trace::set_enabled(traced);
        rep_outcome out = run_schedule(*p, cfg, rep);
        trace::set_enabled(false);
        if (traced) {
            traced_wall = out.wall;
        } else {
            untraced_wall += out.wall;
            ++untraced_passes;
        }
        if (traced) {
            counters.confirmations = out.confirmations;
            counters.sw16_cycles = out.sw16_cycles;
            counters.wal_bytes = p->log->bytes_written();
            counters.wal_records = p->log->records_logged();
            counters.wal_dropped = p->log->records_dropped();
        }
        mbps.push_back(static_cast<double>(out.bits) / out.wall / 1e6);
        window_ms.insert(window_ms.end(), out.window_ms.begin(),
                         out.window_ms.end());
        confirm_ms.insert(confirm_ms.end(), out.confirm_ms.begin(),
                          out.confirm_ms.end());

        // Output check (untimed).
        if (opt.corrupt && rep == 0) {
            corrupt_file(path);
        }
        std::uint64_t bad = p->log->records_dropped();
        const core::telemetry_run run = core::read_telemetry(path);
        const core::replay_report replay = core::verify_replay(run);
        for (const core::replay_confirmation& c : replay.confirmations) {
            bad += c.match ? 0 : 1;
        }
        if (!run.header_ok || !run.clean || !replay.verified
            || replay.confirmations.size() != out.confirmations
            || run.events != out.events
            || run.windows.size() != windows_per_rep
            || (first && out.events != first->events)) {
            bad = std::max<std::uint64_t>(bad, 1);
        }
        r.count(windows_per_rep + p->log->records_logged(), bad);
        if (!first) {
            first = std::move(out);
        }
        if (opt.trace ? rep == 2
                      : seconds_since(budget_start) >= opt.seconds) {
            break;
        }
    }
    std::remove(path.c_str());

    // Windows from each attack's onset to the reconfiguration.
    std::vector<double> latencies;
    for (const std::uint64_t onset : sched.onsets) {
        for (const core::supervision_event& ev : first->events) {
            if (ev.kind == core::supervision_event_kind::escalated
                && ev.window_index >= onset) {
                latencies.push_back(
                    static_cast<double>(ev.window_index - onset));
                break;
            }
        }
    }
    double latency_sum = 0.0;
    for (const double l : latencies) {
        latency_sum += l;
    }
    r.detail("escalation_latency_windows_mean",
             latencies.empty() ? 0.0
                               : latency_sum
                                   / static_cast<double>(latencies.size()),
             "windows");
    r.detail("attacks_escalated", static_cast<double>(latencies.size()),
             "count");
    r.detail("attacks", static_cast<double>(sched.onsets.size()), "count");
    r.detail("confirmations_per_repetition",
             static_cast<double>(first->confirmations), "count");
    r.info.emplace_back("lane", "span");
    r.info.emplace_back("execution", "external per-window loop, 1 thread");
    if (opt.trace) {
        add_layer_metrics(r, trace::summarize(), traced_wall,
                          untraced_wall / untraced_passes, counters);
    } else {
        r.add("mbps", median(mbps), "Mbit/s");
        r.add("setup_s", median(setup), "s");
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.detail("window_ms_p50", quantile(window_ms, 0.50), "ms");
        r.detail("window_ms_p99", quantile(window_ms, 0.99), "ms");
        r.detail("window_samples", static_cast<double>(window_ms.size()),
                 "count");
        r.detail("confirm_ms_p50", quantile(confirm_ms, 0.50), "ms");
        r.detail("confirm_samples", static_cast<double>(confirm_ms.size()),
                 "count");
        r.detail("repetitions", static_cast<double>(mbps.size()), "count");
    }
    return r;
}

} // namespace perfbench
