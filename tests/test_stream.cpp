// Tests of the single-channel loop (core::run_windows), the one path every
// fleet channel, population device, supervised run and scenario trial
// takes: verdicts register-exact with a direct test_window loop across
// every paper design and both ingestion lanes, the between-windows hook
// (severity stepping, mid-stream re-framing), the evidence tap, early
// sink stop, the dry-source error and the sub-word designs.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace otf;
using test::fixture_seed;

void expect_same_report(const core::window_report& a,
                        const core::window_report& b,
                        const std::string& context)
{
    EXPECT_EQ(a.window_index, b.window_index) << context;
    EXPECT_EQ(a.software.all_pass, b.software.all_pass) << context;
    ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size())
        << context;
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        EXPECT_EQ(a.software.verdicts[i].name,
                  b.software.verdicts[i].name)
            << context;
        EXPECT_EQ(a.software.verdicts[i].pass,
                  b.software.verdicts[i].pass)
            << context << ": " << a.software.verdicts[i].name;
        EXPECT_EQ(a.software.verdicts[i].statistic,
                  b.software.verdicts[i].statistic)
            << context << ": " << a.software.verdicts[i].name;
        EXPECT_EQ(a.software.verdicts[i].bound,
                  b.software.verdicts[i].bound)
            << context << ": " << a.software.verdicts[i].name;
    }
    EXPECT_EQ(a.sw_cycles, b.sw_cycles) << context;
    EXPECT_EQ(a.generation_cycles, b.generation_cycles) << context;
}

/// Sink that keeps every report.
core::window_sink collect(std::vector<core::window_report>& out)
{
    return [&out](const core::window_report& wr) {
        out.push_back(wr);
        return true;
    };
}

hw::block_config tiny_design()
{
    hw::block_config tiny;
    tiny.name = "tiny n=32";
    tiny.log2_n = 5;
    tiny.tests = hw::test_set{}
                     .with(hw::test_id::frequency)
                     .with(hw::test_id::cumulative_sums);
    return tiny;
}

// ---------------------------------------------------------------------------
// Verdicts are register-exact with the per-bit test_window loop (the
// acceptance oracle): all eight paper designs, both ingestion lanes.
// ---------------------------------------------------------------------------

void check_against_test_window(core::ingest_lane lane, std::uint64_t seed)
{
    for (const hw::block_config& cfg : core::all_paper_designs()) {
        const std::uint64_t windows = cfg.n() > 100000 ? 2 : 3;
        core::monitor mon(cfg, 0.01);
        trng::ideal_source src(seed);
        std::vector<core::window_report> looped;
        const std::uint64_t done = core::run_windows(
            mon, src, windows, lane, collect(looped));
        EXPECT_EQ(done, windows) << cfg.name;
        ASSERT_EQ(looped.size(), windows) << cfg.name;

        core::monitor direct(cfg, 0.01);
        trng::ideal_source direct_src(seed);
        for (std::uint64_t w = 0; w < windows; ++w) {
            expect_same_report(direct.test_window(direct_src), looped[w],
                               cfg.name + " window " + std::to_string(w));
        }
    }
}

TEST(run_windows, matches_test_window_span_lane_all_designs)
{
    check_against_test_window(core::ingest_lane::span, fixture_seed(21));
}

TEST(run_windows, matches_test_window_per_bit_lane_all_designs)
{
    check_against_test_window(core::ingest_lane::per_bit, fixture_seed(22));
}

// ---------------------------------------------------------------------------
// The between-windows hook: severity schedules and re-framing.
// ---------------------------------------------------------------------------

TEST(run_windows, barrier_fires_once_per_window_with_the_window_index)
{
    const hw::block_config cfg = core::paper_design(7, core::tier::light);
    core::monitor mon(cfg, 0.01);
    // A restored channel continues the global numbering; the hook sees
    // the monitor's count, not a loop-local one.
    mon.restore_window_count(10);
    trng::ideal_source src(fixture_seed(24));
    std::vector<std::uint64_t> indices;
    core::run_windows(mon, src, 4, core::ingest_lane::span, nullptr,
                      [&](std::uint64_t next_window) {
                          indices.push_back(next_window);
                      });
    EXPECT_EQ(indices, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

TEST(run_windows, severity_schedule_steps_on_the_same_windows_as_batch)
{
    // Reference: set the severity per window, then generate-and-test
    // that window bit by bit.  Looped: the schedule rides the barrier.
    // Verdicts must match exactly, window by window.
    const hw::block_config cfg =
        core::custom_design(12, hw::test_set{}
                                    .with(hw::test_id::frequency)
                                    .with(hw::test_id::block_frequency)
                                    .with(hw::test_id::runs)
                                    .with(hw::test_id::longest_run)
                                    .with(hw::test_id::cumulative_sums));
    const std::uint64_t windows = 12;
    const core::severity_schedule schedule{
        core::severity_schedule::shape::ramp, 1.0, 4, 6, 0};

    core::monitor batch(cfg, 0.01);
    trng::rtn_source batch_model(
        std::make_unique<trng::ideal_source>(fixture_seed(25)),
        fixture_seed(26));
    std::vector<core::window_report> ref;
    for (std::uint64_t w = 0; w < windows; ++w) {
        batch_model.set_severity(schedule.severity_at(w));
        ref.push_back(batch.test_window(batch_model));
    }

    core::monitor mon(cfg, 0.01);
    trng::rtn_source model(
        std::make_unique<trng::ideal_source>(fixture_seed(25)),
        fixture_seed(26));
    std::vector<core::window_report> looped;
    core::run_windows(mon, model, windows, core::ingest_lane::span,
                      collect(looped), [&](std::uint64_t window) {
                          model.set_severity(schedule.severity_at(window));
                      });

    ASSERT_EQ(looped.size(), ref.size());
    for (std::uint64_t w = 0; w < windows; ++w) {
        expect_same_report(ref[w], looped[w],
                           "window " + std::to_string(w));
    }
}

TEST(run_windows, barrier_reframes_to_a_longer_window_without_dropping)
{
    // 20 words: two 128-bit windows at design A, then the barrier
    // reprograms the live block to the 4x-longer design B and the loop
    // re-frames -- the remaining 16 words become two 512-bit windows.
    const hw::block_config design_a =
        core::paper_design(7, core::tier::light);
    const hw::block_config design_b = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)
               .with(hw::test_id::cumulative_sums));

    core::monitor mon(design_a, 0.01);
    trng::ideal_source src(fixture_seed(22));
    std::vector<core::window_report> reports;
    std::vector<std::uint64_t> tapped;
    const std::uint64_t done = core::run_windows(
        mon, src, 4, core::ingest_lane::span, collect(reports),
        [&](std::uint64_t next_window) {
            if (next_window == 2) {
                mon.reconfigure(design_b, 0.01);
            }
        },
        [&](std::uint64_t, const std::uint64_t* words, std::size_t n) {
            tapped.insert(tapped.end(), words, words + n);
        });
    ASSERT_EQ(done, 4u);
    ASSERT_EQ(reports.size(), 4u);

    // Exactly 20 words were drawn, in order: the tap saw them all and
    // the source continues at word 20.
    trng::ideal_source replay(fixture_seed(22));
    const std::vector<std::uint64_t> words = replay.generate_words(21);
    EXPECT_EQ(tapped,
              std::vector<std::uint64_t>(words.begin(), words.begin() + 20))
        << "no word may be dropped or duplicated";
    std::uint64_t next = 0;
    src.fill_words(&next, 1);
    EXPECT_EQ(next, words[20]) << "the loop must not generate ahead";

    // Register-exactness of the split: fresh monitors fed the same word
    // stream must reproduce every verdict.
    core::monitor fresh_a(design_a, 0.01);
    core::monitor fresh_b(design_b, 0.01);
    const auto window_of = [&](core::monitor& m, std::size_t from,
                               std::size_t count, std::uint64_t index) {
        auto wr = m.test_packed(words.data() + from, count);
        // The fresh monitors start counting at 0; align to the live
        // monitor's continuous window count.
        wr.window_index = index;
        return wr;
    };
    expect_same_report(reports[0], window_of(fresh_a, 0, 2, 0),
                       "A window 0");
    expect_same_report(reports[1], window_of(fresh_a, 2, 2, 1),
                       "A window 1");
    expect_same_report(reports[2], window_of(fresh_b, 4, 8, 2),
                       "B window 2");
    expect_same_report(reports[3], window_of(fresh_b, 12, 8, 3),
                       "B window 3");
}

// ---------------------------------------------------------------------------
// Evidence tap.
// ---------------------------------------------------------------------------

TEST(run_windows, tap_sees_exactly_the_tested_window)
{
    const hw::block_config cfg = core::paper_design(7, core::tier::light);
    const std::size_t nwords = 2; // 128-bit windows
    const std::uint64_t windows = 6;

    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(fixture_seed(21));
    std::vector<std::uint64_t> tap_indexes;
    std::vector<core::window_report> from_tap;
    core::monitor shadow(cfg, 0.01);
    std::vector<core::window_report> looped;
    core::run_windows(
        mon, src, windows, core::ingest_lane::span, collect(looped),
        nullptr,
        [&](std::uint64_t index, const std::uint64_t* words,
            std::size_t n) {
            tap_indexes.push_back(index);
            ASSERT_EQ(n, nwords);
            // Testing the tapped words must give the looped verdict.
            from_tap.push_back(shadow.test_packed(words, n));
        });

    EXPECT_EQ(tap_indexes, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
    ASSERT_EQ(from_tap.size(), looped.size());
    for (std::uint64_t w = 0; w < windows; ++w) {
        expect_same_report(from_tap[w], looped[w],
                           "window " + std::to_string(w));
    }
}

// ---------------------------------------------------------------------------
// End of the loop: early sink stop and the dry source.
// ---------------------------------------------------------------------------

TEST(run_windows, sink_stops_the_loop_early)
{
    // The sink ends the run (here: once the alarm fires) well before the
    // window cap -- the continuous-monitoring deployment shape.
    const hw::block_config cfg = core::paper_design(7, core::tier::light);
    core::monitor mon(cfg, 0.01);
    core::windowed_alarm alarm(2, 8);
    trng::stuck_source src(true); // fails every window
    const std::uint64_t done = core::run_windows(
        mon, src, 100, core::ingest_lane::span,
        [&](const core::window_report& wr) {
            return !alarm.record(!wr.software.all_pass);
        });
    EXPECT_TRUE(alarm.alarm());
    EXPECT_EQ(done, 2u); // second failed window trips the 2-of-8 policy
    EXPECT_EQ(mon.windows_tested(), 2u);
}

TEST(run_windows, throws_naming_the_source_when_it_runs_dry)
{
    const hw::block_config cfg = core::paper_design(7, core::tier::light);
    trng::ideal_source gen(fixture_seed(28));
    trng::replay_source src(gen.generate(cfg.n())); // one window only

    core::monitor mon(cfg, 0.01);
    try {
        core::run_windows(mon, src, 3, core::ingest_lane::span, nullptr);
        FAIL() << "expected the dry source to surface as an error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("replay"), std::string::npos) << what;
        EXPECT_NE(what.find("ran dry after 1 of 3 windows"),
                  std::string::npos)
            << what;
    }
    // The window the source could supply was still tested.
    EXPECT_EQ(mon.windows_tested(), 1u);
}

// ---------------------------------------------------------------------------
// Sub-word designs (n < 64): per-bit only.
// ---------------------------------------------------------------------------

TEST(run_windows, sub_word_designs_run_bit_by_bit_on_the_per_bit_lane)
{
    const hw::block_config tiny = tiny_design();
    const std::uint64_t windows = 5;
    core::monitor mon(tiny, 0.01);
    trng::ideal_source src(fixture_seed(29));
    std::vector<core::window_report> looped;
    std::vector<std::uint64_t> hooks;
    bool tapped = false;
    core::run_windows(
        mon, src, windows, core::ingest_lane::per_bit, collect(looped),
        [&](std::uint64_t w) { hooks.push_back(w); },
        [&](std::uint64_t, const std::uint64_t*, std::size_t) {
            tapped = true;
        });
    EXPECT_EQ(hooks, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
    EXPECT_FALSE(tapped) << "a sub-word window has no packed words";

    core::monitor direct(tiny, 0.01);
    trng::ideal_source direct_src(fixture_seed(29));
    ASSERT_EQ(looped.size(), windows);
    for (std::uint64_t w = 0; w < windows; ++w) {
        expect_same_report(direct.test_window(direct_src), looped[w],
                           "window " + std::to_string(w));
    }
}

TEST(run_windows, sub_word_designs_fail_with_the_length_error_when_packed)
{
    for (const core::ingest_lane lane :
         {core::ingest_lane::span, core::ingest_lane::sliced}) {
        core::monitor mon(tiny_design(), 0.01);
        trng::ideal_source src(fixture_seed(30));
        try {
            core::run_windows(mon, src, 1, lane, nullptr);
            FAIL() << "a packed lane must reject a sub-word design";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("word buffer must hold exactly the "
                                "design's n (32 bits"),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(mon.windows_tested(), 0u);
    }
}

} // namespace
