// Workload "population": core::population_monitor::run on 10k heterogeneous
// devices, n=128 light escalating to n=128 medium, 25% attacked (the
// library's default population profile), library-default lane, fused
// execution, nproc-1 workers so the aggregator thread keeps a core.
//
// Tiny windows make per-window fixed costs dominate: the software pass,
// register-map rebuilds, P-values, ~2k offline confirmations on short,
// mostly non-power-of-two evidence, and the aggregator queue.
//
// Check: every repetition's deterministic counters and device records equal
// the first repetition's, and every device record equals a single-thread
// replay of that device through the supervisor's public per-window hooks.
// The traced run times that replay layer by layer.
#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"

#include "core/design_config.hpp"
#include "core/population.hpp"
#include "core/supervisor.hpp"
#include "trng/device_profile.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace otf;

core::population_config make_config(std::uint64_t master_seed)
{
    core::population_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.devices = 10000;
    cfg.windows_per_device = 16;
    cfg.shards = 1;
    cfg.threads_per_shard = std::max(1u, compute_threads() - 1);
    cfg.keep_device_records = true;
    cfg.master_seed = master_seed;
    return cfg;
}

struct replay_totals {
    std::uint64_t sw16_cycles = 0;
    std::uint64_t confirmations = 0;
};

/// One device through the fused supervised channel loop, driven from
/// outside: barrier, fill_words_available, tap, feed_packed/finish_packed,
/// observe -- the sequence run_fleet_channel performs, so the resulting
/// record must equal the population run's.
core::device_record replay_device(const core::fleet_config& fcfg,
                                  const core::critical_values& cv,
                                  const core::critical_values& cv_esc,
                                  const trng::device_profile& profile,
                                  std::uint64_t windows,
                                  replay_totals& totals)
{
    const span_ids& id = span_ids::get();
    const trace::scope unit(id.device, profile.device);
    std::optional<core::supervisor> sup;
    std::unique_ptr<trng::entropy_source> src;
    std::optional<core::windowed_alarm> policy;
    core::window_tap tap;
    core::window_barrier barrier;
    {
        const trace::scope s(id.channel_setup, profile.device);
        src = trng::make_device_source(profile, fcfg.block.n());
        sup.emplace(fcfg.supervised_config(), cv, cv_esc);
        policy.emplace(fcfg.fail_threshold, fcfg.policy_window);
        tap = sup->tap();
        barrier = sup->barrier();
    }
    core::monitor& mon = sup->inner();
    std::vector<std::uint64_t> staging;

    core::device_record rec;
    rec.device = profile.device;
    rec.kind = profile.kind;
    rec.attacked = profile.attacked();
    rec.churned = profile.churns;
    rec.onset_window = profile.onset_window;
    for (std::uint64_t w = 0; w < windows; ++w) {
        const std::size_t events_before = sup->events().size();
        {
            const trace::scope s(id.barrier, profile.device);
            barrier(mon.windows_tested());
        }
        if (sup->events().size() != events_before
            && sup->events().back().kind
                == core::supervision_event_kind::confirmed) {
            ++totals.confirmations;
            if (trace::enabled()) {
                probe_battery(*sup, fcfg.offline_alpha, profile.device);
            }
        }
        const auto nwords = static_cast<std::size_t>(mon.config().n() / 64);
        staging.resize(nwords);
        {
            const trace::scope s(id.fill_words, profile.device);
            std::size_t filled = 0;
            while (filled < nwords) {
                const std::size_t got = src->fill_words_available(
                    staging.data() + filled, nwords - filled);
                if (got == 0) {
                    throw std::runtime_error("device source ran dry");
                }
                filled += got;
            }
        }
        {
            const trace::scope s(id.capture, profile.device);
            tap(mon.windows_tested(), staging.data(), nwords);
        }
        {
            const trace::scope s(id.engine_feed, profile.device);
            mon.feed_packed(staging.data(), nwords, fcfg.lane);
        }
        core::window_report wr;
        {
            const trace::scope s(id.software_pass, profile.device);
            wr = mon.finish_packed();
        }
        const trace::scope s(id.observe, profile.device);
        sup->observe(wr);
        totals.sw16_cycles += wr.sw_cycles;
        ++rec.windows;
        rec.bits += mon.config().n();
        const bool failed = !wr.software.all_pass;
        rec.failures += failed ? 1 : 0;
        policy->record(failed);
        if (policy->rose()) {
            rec.first_alarm_window = wr.window_index;
        }
    }
    rec.alarm = policy->alarm();
    if (!rec.alarm) {
        rec.first_alarm_window = rec.windows;
    }
    const core::supervision_report sr = sup->report();
    rec.escalations = sr.escalations;
    rec.confirmed_escalations = sr.confirmed_escalations;
    rec.de_escalations = sr.de_escalations;
    rec.windows_escalated = sr.windows_escalated;
    return rec;
}

/// Replay every device single-threaded; returns the wall time and counts
/// records that differ from `expected`.
double replay_population(const core::population_config& cfg,
                         const core::critical_values& cv,
                         const core::critical_values& cv_esc,
                         const std::vector<core::device_record>& expected,
                         replay_totals& totals, std::uint64_t& mismatches)
{
    const core::fleet_config fcfg = cfg.shard_fleet_config();
    const auto start = clock::now();
    for (std::uint32_t d = 0; d < cfg.devices; ++d) {
        const trng::device_profile p =
            trng::sample_device(cfg.profile, cfg.master_seed, d);
        const core::device_record rec = replay_device(
            fcfg, cv, cv_esc, p, cfg.windows_per_device, totals);
        if (d >= expected.size() || !(rec == expected[d])) {
            ++mismatches;
        }
    }
    return seconds_since(start);
}

std::uint64_t differing_records(const core::population_report& a,
                                const core::population_report& b)
{
    std::uint64_t bad = 0;
    for (std::size_t d = 0; d < a.device_records.size(); ++d) {
        if (d >= b.device_records.size()
            || !(a.device_records[d] == b.device_records[d])) {
            ++bad;
        }
    }
    if (bad == 0 && !a.same_counters(b)) {
        bad = 1; // an aggregate differs although every record agrees
    }
    return bad;
}

} // namespace

result run_population(const options& opt)
{
    result r;
    r.operation = "device runs (population repetitions x devices, plus "
                  "the single-thread replay)";
    // Repetitions rotate over a few populations sampled from the seed, so
    // one population whose run throws (counted as failed) does not void
    // the run's throughput.
    constexpr unsigned populations = 5;
    std::uint64_t state = opt.seed;
    std::vector<core::population_config> cfgs;
    for (unsigned p = 0; p < populations; ++p) {
        cfgs.push_back(make_config(mix_seed(state)));
    }
    const std::uint32_t devices = cfgs[0].devices;

    // Set-up: critical-value inversion for both tiers and the monitor
    // itself.  Sampled a few times per repetition, so the median spans the
    // whole run.
    constexpr int setups_per_rep = 5;
    std::vector<double> setup;
    std::optional<core::population_monitor> pop;
    const auto prepare = [&](const core::population_config& cfg) {
        for (int i = 0; i < setups_per_rep; ++i) {
            const auto t0 = clock::now();
            pop.emplace(cfg);
            setup.push_back(seconds_since(t0));
        }
    };
    for (const core::population_config& cfg : cfgs) {
        prepare(cfg);
    }

    const auto budget_start = clock::now();
    std::vector<std::optional<core::population_report>> firsts(populations);
    std::vector<bool> broken(populations, false);
    std::vector<double> mbps;
    for (unsigned rep = 0;; ++rep) {
        const unsigned p = rep % populations;
        if (std::count(broken.begin(), broken.end(), true) == populations) {
            break;
        }
        if (broken[p]) {
            continue;
        }
        prepare(cfgs[p]);
        const auto t0 = clock::now();
        core::population_report report;
        try {
            report = pop->run();
        } catch (const std::exception& e) {
            // A device that throws aborts the whole population run: none
            // of its device results are delivered.  Deterministic, so the
            // population is not retried.
            broken[p] = true;
            r.lose(devices);
            r.info.emplace_back("error_population_" + std::to_string(p),
                                e.what());
            continue;
        }
        const double wall = seconds_since(t0);
        mbps.push_back(static_cast<double>(report.bits) / wall / 1e6);
        if (!firsts[p]) {
            r.count(devices, report.queue_pushed != devices ? 1 : 0);
            firsts[p] = std::move(report);
        } else {
            r.count(devices, differing_records(*firsts[p], report));
        }
        if (opt.trace || seconds_since(budget_start) >= opt.seconds) {
            break;
        }
    }

    // The replay check and the traced run use the first population that
    // completed.
    const auto ref_it =
        std::find_if(firsts.begin(), firsts.end(),
                     [](const auto& f) { return f.has_value(); });
    if (ref_it != firsts.end()) {
        const core::population_config& cfg =
            cfgs[static_cast<std::size_t>(ref_it - firsts.begin())];
        core::population_report& ref = **ref_it;
        if (opt.corrupt) {
            ref.device_records[devices / 2].failures ^= 1;
        }
        const core::critical_values cv =
            core::compute_critical_values(cfg.block, cfg.alpha);
        const core::critical_values cv_esc =
            core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
        // Untraced replay: the check, and the traced run's baseline.
        const auto replay = [&](replay_totals& totals) {
            std::uint64_t mismatches = 0;
            const double wall = replay_population(
                cfg, cv, cv_esc, ref.device_records, totals, mismatches);
            r.count(devices, mismatches);
            return wall;
        };
        replay_totals totals;
        double untraced = replay(totals);
        if (opt.trace) {
            trace::set_enabled(true);
            replay_totals traced_totals;
            const double traced = replay(traced_totals);
            trace::set_enabled(false);
            // Baseline: the mean of an untraced replay on either side.
            untraced = (untraced + replay(totals)) / 2;
            layer_counters counters;
            counters.queue_pop_stalls = ref.queue_pop_stalls;
            counters.queue_max_occupancy = ref.queue_max_occupancy;
            counters.steals = ref.steals;
            counters.confirmations = traced_totals.confirmations;
            counters.sw16_cycles = traced_totals.sw16_cycles;
            add_layer_metrics(r, trace::summarize(), traced, untraced,
                              counters);
        }
        r.info.emplace_back("lane", ref.lane);
        r.info.emplace_back("execution", ref.execution);
        r.info.emplace_back("worker_threads",
                            std::to_string(ref.worker_threads));
        r.info.emplace_back("master_seed", std::to_string(cfg.master_seed));
        r.detail("alarm_latency_windows_p95",
                 static_cast<double>(ref.alarm_latency.p95), "windows");
        r.detail("alarm_latency_samples",
                 static_cast<double>(ref.alarm_latency.samples), "count");
        r.detail("detected_frac",
                 ref.devices_attacked == 0
                     ? 0.0
                     : static_cast<double>(ref.detected)
                         / static_cast<double>(ref.devices_attacked),
                 "frac");
        r.detail("devices_attacked", ref.devices_attacked, "count");
        r.detail("false_escalations_per_device_day",
                 ref.false_escalations_per_device_day, "1/day");
        r.detail("escalations", ref.escalations, "count");
        r.detail("confirmed_escalations", ref.confirmed_escalations,
                 "count");
        r.detail("bits_per_repetition", static_cast<double>(ref.bits),
                 "bits");
    }
    if (!opt.trace) {
        r.add("mbps", median(mbps), "Mbit/s");
        r.add("setup_s", median(setup), "s");
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.detail("repetitions", static_cast<double>(mbps.size()), "count");
    }
    return r;
}

} // namespace perfbench
