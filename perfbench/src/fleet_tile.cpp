// Workload "fleet-tile": core::fleet_monitor::run with nproc x 64 channels
// on a frequency+runs n=65536 design, ingest_lane::sliced, fused,
// unsupervised, one worker per core.  Sources are sampled with
// trng::sample_device from the workload seed, a fixed number per device
// kind.
//
// Bulk bits through generation, trng::fill_tile, the 64x64 transpose and
// hw::sliced_block::feed_tile; no software-pass maps, no offline battery,
// no aggregator.  Every 64-channel group is one work unit, so the channel
// count is what lets the pool scale.
//
// Check: every repetition's report equals the first, and the first group's
// sliced reports equal a span-lane run of the same sources (untimed).  The
// traced run also checks its re-drive's per-channel reports against the
// fleet's.
#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"

#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "hw/sliced_block.hpp"
#include "trng/device_profile.hpp"

#include <cmath>
#include <optional>

namespace perfbench {

namespace {

using namespace otf;

constexpr std::uint64_t windows_per_channel = 64;
constexpr unsigned lanes = hw::sliced_block::lanes;

core::fleet_config make_config()
{
    core::fleet_config cfg;
    cfg.block = core::custom_design(
        16, hw::test_set()
                .with(hw::test_id::frequency)
                .with(hw::test_id::runs));
    cfg.channels = compute_threads() * lanes;
    cfg.threads = compute_threads();
    cfg.lane = core::ingest_lane::sliced;
    cfg.execution = core::fleet_execution::fused;
    return cfg;
}

using source_set = std::vector<std::unique_ptr<trng::entropy_source>>;

source_set make_sources(const std::vector<trng::device_profile>& profiles,
                        std::uint64_t window_bits, std::size_t first,
                        std::size_t count)
{
    source_set out;
    out.reserve(count);
    for (std::size_t c = first; c < first + count; ++c) {
        out.push_back(trng::make_device_source(profiles[c], window_bits));
    }
    return out;
}

/// Channel profiles drawn with trng::sample_device from the seed, with a
/// fixed number of channels per device kind: the library's default share
/// of attacked channels, spread evenly over the six attack kinds.  The seed
/// picks which channel carries which kind and every parameter.  Set-up
/// cost depends on the mix (an entropy_collapse source draws its power-up
/// fingerprint bit by bit), so a fixed mix keeps setup_s from following
/// the seed.
std::vector<trng::device_profile> make_profiles(unsigned channels,
                                                std::uint64_t master,
                                                std::uint64_t& state)
{
    const trng::population_profile base;
    const auto attacked = static_cast<unsigned>(
        std::lround(channels * base.attacked_fraction));
    std::vector<trng::device_kind> kinds(channels,
                                         trng::device_kind::healthy);
    for (unsigned i = 0; i < attacked; ++i) {
        kinds[i] = static_cast<trng::device_kind>(
            1 + i % trng::attacked_kind_count);
    }
    for (std::size_t i = kinds.size(); i > 1; --i) {
        std::swap(kinds[i - 1], kinds[mix_seed(state) % i]);
    }
    std::vector<trng::device_profile> out;
    for (unsigned c = 0; c < channels; ++c) {
        trng::population_profile p = base;
        if (kinds[c] == trng::device_kind::healthy) {
            p.attacked_fraction = 0.0;
        } else {
            p.attacked_fraction = 1.0;
            p.model_weights.fill(0.0);
            p.model_weights[static_cast<std::size_t>(kinds[c]) - 1] = 1.0;
        }
        out.push_back(trng::sample_device(p, master, c));
    }
    return out;
}

/// The channel bookkeeping run_fleet_sliced_group does per window.
void observe(core::channel_report& rep, core::windowed_alarm& policy,
             const core::window_report& wr, std::uint64_t n)
{
    ++rep.windows;
    rep.bits += n;
    const bool failed = !wr.software.all_pass;
    if (failed) {
        ++rep.failures;
        for (const core::test_verdict& v : wr.software.verdicts) {
            if (!v.pass) {
                ++rep.failures_by_test[v.name];
            }
        }
    }
    policy.record(failed);
    if (policy.rose()) {
        rep.first_alarm_window = wr.window_index;
    }
    rep.alarm = policy.alarm();
}

/// Re-drive every 64-channel group single-threaded through fill_tile,
/// feed_tile and the sliced software pass; returns the wall time and
/// counts channels whose report differs from `expected`.
double redrive(const core::fleet_config& cfg,
               const core::critical_values& cv,
               const std::vector<trng::device_profile>& profiles,
               const core::fleet_report& expected, std::uint64_t& bad)
{
    const span_ids& id = span_ids::get();
    const std::uint64_t n = cfg.block.n();
    const std::size_t nwords = static_cast<std::size_t>(n / 64);
    constexpr std::size_t tile_words = lanes;
    std::vector<std::uint64_t> tile(std::size_t{lanes} * tile_words);
    std::uint64_t probe_matrix[64];
    const auto start = clock::now();
    for (unsigned g = 0; g * lanes < cfg.channels; ++g) {
        const trace::scope unit(id.device, g);
        source_set sources;
        std::vector<trng::entropy_source*> raw;
        std::optional<hw::sliced_block> group;
        std::vector<core::channel_report> reps(lanes);
        std::vector<core::windowed_alarm> policies;
        {
            const trace::scope s(id.channel_setup, g);
            sources = make_sources(profiles, n, std::size_t{g} * lanes,
                                   lanes);
            for (unsigned i = 0; i < lanes; ++i) {
                raw.push_back(sources[i].get());
                reps[i].channel = g * lanes + i;
                reps[i].source_name = sources[i]->name();
                policies.emplace_back(cfg.fail_threshold,
                                      cfg.policy_window);
            }
            hw::sliced_config scfg;
            scfg.n = n;
            group.emplace(scfg);
        }
        for (std::uint64_t w = 0; w < windows_per_channel; ++w) {
            if (w != 0) {
                const trace::scope s(id.feed_tile, g);
                group->restart();
            }
            for (std::size_t base = 0; base < nwords; base += tile_words) {
                const std::size_t take =
                    std::min(tile_words, nwords - base);
                {
                    const trace::scope s(id.fill_tile, g);
                    trng::fill_tile(raw.data(), lanes, tile.data(),
                                    tile_words, take);
                }
                if (trace::enabled()) {
                    // feed_tile transposes once per tile internally; time
                    // the public kernel on a tile-sized matrix beside it.
                    for (unsigned i = 0; i < 64; ++i) {
                        probe_matrix[i] = tile[std::size_t{i} * tile_words];
                    }
                    const trace::scope s(id.transpose, g, true);
                    bits::transpose_64x64(probe_matrix);
                }
                const trace::scope s(id.feed_tile, g);
                group->feed_tile(tile.data(), tile_words, take);
            }
            std::vector<core::window_report> wrs(lanes);
            {
                const trace::scope s(id.software_pass, g);
                for (unsigned i = 0; i < lanes; ++i) {
                    wrs[i].window_index = w;
                    wrs[i].generation_cycles = n;
                    wrs[i].software = core::sliced_software_pass(
                        cfg.block, cv, group->s_final(i),
                        group->n_runs(i));
                }
            }
            const trace::scope s(id.observe, g);
            for (unsigned i = 0; i < lanes; ++i) {
                observe(reps[i], policies[i], wrs[i], n);
            }
        }
        for (unsigned i = 0; i < lanes; ++i) {
            if (!reps[i].alarm) {
                reps[i].first_alarm_window = reps[i].windows;
            }
            const std::size_t c = std::size_t{g} * lanes + i;
            if (c >= expected.channels.size()
                || !(reps[i] == expected.channels[c])) {
                ++bad;
            }
        }
    }
    return seconds_since(start);
}

} // namespace

result run_fleet_tile(const options& opt)
{
    result r;
    r.operation = "channel runs (repetitions x channels, plus the "
                  "span-lane check and, traced, the re-drive)";
    const core::fleet_config cfg = make_config();
    const std::uint64_t n = cfg.block.n();

    std::uint64_t state = opt.seed;
    const std::uint64_t master = mix_seed(state);
    const std::vector<trng::device_profile> profiles =
        make_profiles(cfg.channels, master, state);

    // Set-up of one repetition: critical-value inversion, the fleet and
    // every channel's source.  Sampled a few times per repetition, so the
    // median spans the whole run.
    constexpr int setups_per_rep = 5;
    struct prepared {
        std::optional<core::fleet_monitor> fleet;
        source_set sources;
    };
    std::vector<double> setup;
    const auto prepare = [&] {
        const auto t0 = clock::now();
        prepared p;
        p.fleet.emplace(cfg);
        p.sources = make_sources(profiles, n, 0, cfg.channels);
        setup.push_back(seconds_since(t0));
        return p;
    };
    for (int i = 0; i < setups_per_rep; ++i) {
        prepare();
    }

    const auto budget_start = clock::now();
    std::optional<core::fleet_report> first;
    std::vector<double> mbps;
    do {
        for (int i = 1; i < setups_per_rep; ++i) {
            prepare();
        }
        prepared p = prepare();
        const auto t0 = clock::now();
        core::fleet_report rep = p.fleet->run(
            [&](unsigned c) { return std::move(p.sources[c]); },
            windows_per_channel);
        const double wall = seconds_since(t0);
        mbps.push_back(static_cast<double>(rep.bits) / wall / 1e6);
        if (!first) {
            first = std::move(rep);
            r.count(cfg.channels, 0);
        } else {
            std::uint64_t bad = 0;
            for (unsigned c = 0; c < cfg.channels; ++c) {
                bad += rep.channels[c] == first->channels[c] ? 0 : 1;
            }
            if (bad == 0 && !rep.same_counters(*first)) {
                bad = 1;
            }
            r.count(cfg.channels, bad);
        }
    } while (!opt.trace && seconds_since(budget_start) < opt.seconds);

    if (opt.corrupt) {
        first->channels[3].failures ^= 1;
    }

    // The first group against the span lane on fresh copies of its
    // sources (the sliced lane charges no MCU cycles; the span lane does).
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    {
        core::fleet_config span_cfg = cfg;
        span_cfg.lane = core::ingest_lane::span;
        span_cfg.channels = 1;
        span_cfg.threads = 1;
        source_set sources = make_sources(profiles, n, 0, lanes);
        std::uint64_t bad = 0;
        for (unsigned c = 0; c < lanes; ++c) {
            core::channel_report span_rep = core::run_fleet_channel(
                span_cfg, cv, std::nullopt, *sources[c], c,
                windows_per_channel);
            span_rep.sw_cycles = 0;
            span_rep.worst_sw_cycles = 0;
            bad += span_rep == first->channels[c] ? 0 : 1;
        }
        r.count(lanes, bad);
    }

    if (opt.trace) {
        const auto pass = [&] {
            std::uint64_t bad = 0;
            const double wall = redrive(cfg, cv, profiles, *first, bad);
            r.count(cfg.channels, bad);
            return wall;
        };
        const double untraced_before = pass();
        trace::set_enabled(true);
        const double traced = pass();
        trace::set_enabled(false);
        // Baseline: the mean of an untraced re-drive on either side.
        const double untraced = (untraced_before + pass()) / 2;
        // The sliced lane has no per-channel cycle model: sw16 reads 0.
        add_layer_metrics(r, trace::summarize(), traced, untraced,
                          layer_counters{});
    }

    r.info.emplace_back("lane", first->lane);
    r.info.emplace_back("execution", first->execution);
    r.info.emplace_back("worker_threads",
                        std::to_string(first->worker_threads));
    r.info.emplace_back("channels", std::to_string(cfg.channels));
    r.info.emplace_back("master_seed", std::to_string(master));
    r.detail("channels_in_alarm", first->channels_in_alarm, "count");
    r.detail("bits_per_repetition", static_cast<double>(first->bits),
             "bits");
    if (!opt.trace) {
        r.add("mbps", median(mbps), "Mbit/s");
        r.add("setup_s", median(setup), "s");
        r.add("peak_rss_mb", peak_rss_mb(), "MB");
        r.detail("repetitions", static_cast<double>(mbps.size()), "count");
    }
    return r;
}

} // namespace perfbench
