// The software pass (core::software_runner).
//
// Golden values: the exact instruction counts and verdicts of one fixed
// window on each of the eight paper designs, the marginal-transfer and
// double-buffered interface variants, a wide custom serial design (m = 8)
// with and without marginal transfer, and two biased windows that take
// the failing branches.  These are the integers behind the SW rows of Table
// III; any change to how the pass reads the register map or charges the
// soft CPU shows up here first.
//
// Linking: the runner resolves its registers against one register map at
// construction.  A layout that lacks a register fails there, a map of
// another design fails at run(), and a monitor relinks on reconfigure.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "hw/testing_block.hpp"
#include "trng/sources.hpp"

#include <array>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace otf;

constexpr double alpha = 0.01;
constexpr std::uint64_t window_seed = 20150309;
/// Source marker: an ideal_source window instead of a biased one.
constexpr double kIdeal = -1.0;

struct golden_verdict {
    const char* name;
    std::int64_t statistic;
    std::int64_t bound;
    bool pass;
};

/// add, sub, mul, sqr, shift, comp, lut, read
using op_row = std::array<std::uint64_t, 8>;

struct golden_case {
    const char* label;
    hw::block_config cfg;
    double p_one; ///< biased_source P(1), or kIdeal
    op_row collection;
    op_row total;
    std::uint64_t sw_cycles;
    std::vector<golden_verdict> verdicts;
};

hw::block_config paper(unsigned log2_n, core::tier t)
{
    return core::paper_design(log2_n, t);
}

hw::block_config marginal_transfer()
{
    hw::block_config cfg = paper(16, core::tier::high);
    cfg.serial_transfer_marginals = true;
    cfg.name += " (marginal transfer)";
    return cfg;
}

hw::block_config double_buffered()
{
    hw::block_config cfg = paper(7, core::tier::medium);
    cfg.double_buffered = true;
    cfg.name += " (double buffered)";
    return cfg;
}

/// All nine tests at n = 65536 with the widest serial pattern (m = 8):
/// 480 mapped registers, or 288 plus 192 derived marginals with marginal
/// transfer -- a layout far beyond the paper designs' 12 to 68.
hw::block_config wide_serial(bool marginal_transfer)
{
    hw::test_set all;
    for (const hw::test_id id :
         {hw::test_id::frequency, hw::test_id::block_frequency,
          hw::test_id::runs, hw::test_id::longest_run,
          hw::test_id::non_overlapping_template,
          hw::test_id::overlapping_template, hw::test_id::serial,
          hw::test_id::approximate_entropy, hw::test_id::cumulative_sums}) {
        all.with(id);
    }
    hw::block_config cfg = core::custom_design(16, all);
    cfg.serial_m = 8;
    cfg.serial_transfer_marginals = marginal_transfer;
    cfg.name = marginal_transfer ? "wide serial m=8 (marginal transfer)"
                                 : "wide serial m=8";
    return cfg;
}

op_row row(const sw16::op_counts& o)
{
    return {o.add, o.sub, o.mul, o.sqr, o.shift, o.comp, o.lut, o.read};
}

void expect_ops(const sw16::op_counts& got, const op_row& want,
                const std::string& what)
{
    static constexpr const char* fields[] = {"add",   "sub",  "mul",
                                             "sqr",   "shift", "comp",
                                             "lut",   "read"};
    const op_row have = row(got);
    for (std::size_t f = 0; f < have.size(); ++f) {
        EXPECT_EQ(have[f], want[f]) << what << " ." << fields[f];
    }
}

std::vector<golden_case> golden_cases()
{
    return {
        {"n=128 light", paper(7, core::tier::light), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 12},
         {17, 8, 4, 8, 5, 23, 0, 12},
         286,
         {
             {"frequency", 2, 29, true},
             {"block_frequency", 68, 424, true},
             {"runs", 65, 78, true},
             {"longest_run", 1164573, 1792073, true},
             {"cumulative_sums", 9, 31, true},
         }},
        {"n=128 medium", paper(7, core::tier::medium), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 40},
         {222, 65, 52, 36, 110, 32, 24, 40},
         2121,
         {
             {"frequency", 2, 29, true},
             {"block_frequency", 68, 424, true},
             {"runs", 65, 78, true},
             {"longest_run", 1164573, 1792073, true},
             {"serial", 912, 2571, true},
             {"approximate_entropy", 42714, 39281, true},
             {"cumulative_sums", 9, 31, true},
         }},
        {"n=65536 light", paper(16, core::tier::light), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 30},
         {84, 38, 18, 22, 18, 50, 0, 30},
         962,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 52532, 131071, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"n=65536 medium", paper(16, core::tier::medium), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 38},
         {132, 60, 26, 38, 34, 61, 0, 38},
         1453,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 52532, 131071, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"non_overlapping_template", 14189056, 81466706, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"n=65536 high", paper(16, core::tier::high), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 100},
         {471, 119, 110, 100, 143, 75, 24, 100},
         4381,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 52532, 131071, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"non_overlapping_template", 14189056, 81466706, true},
             {"overlapping_template", 17818520, 20731992, true},
             {"serial", 469680, 1316633, true},
             {"approximate_entropy", 45264, 45207, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"n=1048576 light", paper(20, core::tier::light), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 31},
         {77, 30, 18, 23, 18, 42, 0, 31},
         904,
         {
             {"frequency", 446, 2637, true},
             {"block_frequency", 1042100, 2633267, true},
             {"runs", 524539, 525606, true},
             {"longest_run", 68252308, 75923138, true},
             {"cumulative_sums", 1112, 2874, true},
         }},
        {"n=1048576 medium", paper(20, core::tier::medium), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 39},
         {133, 56, 26, 39, 34, 54, 0, 39},
         1434,
         {
             {"frequency", 446, 2637, true},
             {"block_frequency", 1042100, 2633267, true},
             {"runs", 524539, 525606, true},
             {"longest_run", 68252308, 75923138, true},
             {"non_overlapping_template", 270295552, 1303467306, true},
             {"cumulative_sums", 1112, 2874, true},
         }},
        {"n=1048576 high", paper(20, core::tier::high), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 101},
         {497, 115, 118, 101, 145, 68, 24, 101},
         4505,
         {
             {"frequency", 446, 2637, true},
             {"block_frequency", 1042100, 2633267, true},
             {"runs", 524539, 525606, true},
             {"longest_run", 68252308, 75923138, true},
             {"non_overlapping_template", 270295552, 1303467306, true},
             {"overlapping_template", 4306617664, 4358243709, true},
             {"serial", 3106528, 21066138, true},
             {"approximate_entropy", 45396, 45362, true},
             {"cumulative_sums", 1112, 2874, true},
         }},
        {"n=65536 high (marginal transfer)", marginal_transfer(), kIdeal,
         {24, 0, 0, 0, 0, 0, 0, 76},
         {495, 119, 110, 100, 143, 75, 24, 76},
         4381,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 52532, 131071, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"non_overlapping_template", 14189056, 81466706, true},
             {"overlapping_template", 17818520, 20731992, true},
             {"serial", 469680, 1316633, true},
             {"approximate_entropy", 45264, 45207, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"n=128 medium (double buffered)", double_buffered(), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 40},
         {222, 65, 52, 36, 110, 32, 24, 40},
         2121,
         {
             {"frequency", 2, 29, true},
             {"block_frequency", 68, 424, true},
             {"runs", 65, 78, true},
             {"longest_run", 1164573, 1792073, true},
             {"serial", 912, 2571, true},
             {"approximate_entropy", 42714, 39281, true},
             {"cumulative_sums", 9, 31, true},
         }},
        {"wide serial m=8", wide_serial(false), kIdeal,
         {0, 0, 0, 0, 0, 0, 0, 932},
         {6211, 826, 1250, 932, 1578, 68, 384, 932},
         46643,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 64852, 164579, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"non_overlapping_template", 14189056, 81466706, true},
             {"overlapping_template", 17818520, 20731992, true},
             {"serial", 9537280, 11018777, true},
             {"approximate_entropy", -59, -79, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"wide serial m=8 (marginal transfer)", wide_serial(true), kIdeal,
         {384, 0, 0, 0, 0, 0, 0, 548},
         {6601, 826, 1250, 932, 1578, 68, 384, 548},
         46661,
         {
             {"frequency", 490, 659, true},
             {"block_frequency", 64852, 164579, true},
             {"runs", 32863, 33095, true},
             {"longest_run", 1076843820, 1105380030, true},
             {"non_overlapping_template", 14189056, 81466706, true},
             {"overlapping_template", 17818520, 20731992, true},
             {"serial", 9537280, 11018777, true},
             {"approximate_entropy", -59, -79, true},
             {"cumulative_sums", 520, 718, true},
         }},
        {"n=65536 high, p(1) = 0.52", paper(16, core::tier::high), 0.52,
         {0, 0, 0, 0, 0, 0, 0, 100},
         {469, 113, 110, 100, 141, 61, 24, 100},
         4311,
         {
             {"frequency", 2606, 659, false},
             {"block_frequency", 532140, 131071, false},
             {"runs", 2606, 1024, false},
             {"longest_run", 1092901214, 1105380030, true},
             {"non_overlapping_template", 55517696, 81466706, true},
             {"overlapping_template", 19780296, 20731992, true},
             {"serial", 7193424, 1316633, false},
             {"approximate_entropy", 44837, 45207, false},
             {"cumulative_sums", 2624, 718, false},
         }},
        {"n=128 medium, p(1) = 0.75", paper(7, core::tier::medium), 0.75,
         {0, 0, 0, 0, 0, 0, 0, 40},
         {221, 64, 52, 36, 109, 25, 24, 40},
         2092,
         {
             {"frequency", 70, 29, false},
             {"block_frequency", 1252, 424, false},
             {"runs", 70, 46, false},
             {"longest_run", 3774048, 1792073, false},
             {"serial", 8832, 2571, false},
             {"approximate_entropy", 28000, 39281, false},
             {"cumulative_sums", 70, 31, false},
         }},
    };
}

std::unique_ptr<trng::entropy_source> window_source(double p_one)
{
    if (p_one == kIdeal) {
        return std::make_unique<trng::ideal_source>(window_seed);
    }
    return std::make_unique<trng::biased_source>(window_seed, p_one);
}

TEST(software_pass_golden, covers_every_paper_design)
{
    const std::vector<hw::block_config> designs = core::all_paper_designs();
    ASSERT_EQ(designs.size(), 8u);
    for (const hw::block_config& d : designs) {
        bool found = false;
        for (const golden_case& c : golden_cases()) {
            found = found
                || (c.p_one == kIdeal && c.cfg.name == d.name
                    && c.cfg.tests.to_raw() == d.tests.to_raw());
        }
        EXPECT_TRUE(found) << d.name;
    }
}

TEST(software_pass_golden, ops_cycles_and_verdicts_are_pinned)
{
    for (const golden_case& c : golden_cases()) {
        const std::string label = c.label;
        core::monitor mon(c.cfg, alpha);
        const bit_sequence window =
            window_source(c.p_one)->generate(c.cfg.n());
        const core::window_report rep = mon.test_sequence(window);
        const core::software_result& sw = rep.software;

        expect_ops(sw.collection_ops, c.collection,
                   label + ": collection_ops");
        expect_ops(sw.total_ops, c.total, label + ": total_ops");
        expect_ops(mon.lifetime_ops(), c.total, label + ": lifetime_ops");
        EXPECT_EQ(rep.sw_cycles, c.sw_cycles) << label;

        ASSERT_EQ(sw.verdicts.size(), c.verdicts.size()) << label;
        bool all_pass = true;
        for (std::size_t i = 0; i < c.verdicts.size(); ++i) {
            const core::test_verdict& got = sw.verdicts[i];
            const golden_verdict& want = c.verdicts[i];
            const std::string what = label + ": " + want.name;
            EXPECT_EQ(got.name, std::string{want.name}) << label;
            EXPECT_EQ(got.statistic, want.statistic) << what;
            EXPECT_EQ(got.bound, want.bound) << what;
            EXPECT_EQ(got.pass, want.pass) << what;
            EXPECT_EQ(sw.find(got.id), &got) << what;
            all_pass = all_pass && want.pass;
        }
        EXPECT_EQ(sw.all_pass, all_pass) << label;
    }
}

void expect_same_window(const core::window_report& got,
                        const core::window_report& want,
                        const std::string& what)
{
    EXPECT_EQ(got.sw_cycles, want.sw_cycles) << what;
    EXPECT_EQ(got.software.all_pass, want.software.all_pass) << what;
    ASSERT_EQ(got.software.verdicts.size(), want.software.verdicts.size())
        << what;
    for (std::size_t i = 0; i < want.software.verdicts.size(); ++i) {
        const core::test_verdict& a = got.software.verdicts[i];
        const core::test_verdict& b = want.software.verdicts[i];
        EXPECT_EQ(a.name, b.name) << what;
        EXPECT_EQ(a.statistic, b.statistic) << what << " " << b.name;
        EXPECT_EQ(a.bound, b.bound) << what << " " << b.name;
        EXPECT_EQ(a.pass, b.pass) << what << " " << b.name;
    }
}

/// Drives one monitor through `plan` (a design per phase, reconfiguring
/// between phases) and checks every window against a freshly constructed
/// monitor of that phase's design on the same bits.
void expect_relinks(const std::vector<hw::block_config>& plan)
{
    constexpr unsigned windows_per_phase = 3;
    core::monitor live(plan.front(), alpha);
    trng::biased_source src(window_seed, 0.53);
    for (std::size_t phase = 0; phase < plan.size(); ++phase) {
        const hw::block_config& cfg = plan[phase];
        if (phase > 0) {
            live.reconfigure(cfg, alpha);
        }
        core::monitor fresh(cfg, alpha);
        for (unsigned w = 0; w < windows_per_phase; ++w) {
            const bit_sequence window = src.generate(cfg.n());
            expect_same_window(live.test_sequence(window),
                               fresh.test_sequence(window),
                               cfg.name + " phase " + std::to_string(phase)
                                   + " window " + std::to_string(w));
        }
    }
}

TEST(software_pass_link, reconfigured_monitor_matches_fresh_at_n128)
{
    expect_relinks({paper(7, core::tier::light), paper(7, core::tier::medium),
                    paper(7, core::tier::light)});
}

TEST(software_pass_link, reconfigured_monitor_matches_fresh_at_n65536)
{
    expect_relinks({paper(16, core::tier::light), paper(16, core::tier::high)});
}

TEST(software_pass_link, run_rejects_the_map_of_another_design)
{
    const hw::block_config light = paper(7, core::tier::light);
    const hw::block_config high = paper(16, core::tier::high);
    const hw::testing_block light_block(light);
    const hw::testing_block high_block(high);
    const core::software_runner runner(
        light, core::compute_critical_values(light, alpha),
        light_block.registers());

    sw16::soft_cpu cpu(16);
    EXPECT_NO_THROW(runner.run(light_block.registers(), cpu));
    EXPECT_THROW(runner.run(high_block.registers(), cpu),
                 std::invalid_argument);
}

/// A copy of `map` without the entry called `dropped`.
hw::register_map without(const hw::register_map& map,
                         const std::string& dropped)
{
    hw::register_map out;
    for (const hw::map_entry& e : map.entries()) {
        if (e.name == dropped) {
            continue;
        }
        if (e.group.empty()) {
            out.add_scalar(e.name, e.width, e.is_signed, e.read);
        } else {
            out.add_group_element(e.group, e.name, e.width, e.is_signed,
                                  e.read);
        }
    }
    return out;
}

TEST(software_pass_link, missing_register_fails_at_construction)
{
    const hw::block_config cfg = paper(7, core::tier::medium);
    const core::critical_values cv = core::compute_critical_values(cfg, alpha);
    const hw::testing_block block(cfg);
    EXPECT_NO_THROW(core::software_runner(cfg, cv, block.registers()));

    for (const std::string name :
         {"cusum.s_final", "runs.n_runs", "block_frequency.eps[1]",
          "longest_run.nu[0]", "serial.nu_m2[3]"}) {
        const hw::register_map layout = without(block.registers(), name);
        ASSERT_EQ(layout.size() + 1, block.registers().size()) << name;
        try {
            const core::software_runner runner(cfg, cv, layout);
            ADD_FAILURE() << "linked without " << name;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string{e.what()}.find(name), std::string::npos)
                << e.what();
        }
    }
}

} // namespace
