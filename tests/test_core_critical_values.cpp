// Tests of the precomputed critical values: each integer bound must encode
// the same accept/reject boundary as the reference statistic it inverts,
// and the whole table must respond to alpha the way the paper's
// flexibility argument requires.
#include "core/critical_values.hpp"
#include "core/design_config.hpp"
#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>

namespace {

using namespace otf;
using core::compute_critical_values;
using core::critical_values;

const hw::block_config cfg_high = core::paper_design(16, core::tier::high);

TEST(critical_values, frequency_bound_inverts_erfc)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double n = 65536.0;
    // P(|S| = bound) must be >= alpha and P(|S| = bound + 1) < alpha...
    // S has the parity of n (even), so step by 2.
    const double p_at = nist::erfc(
        static_cast<double>(cv.t1_max_deviation) / std::sqrt(2.0 * n));
    const double p_beyond = nist::erfc(
        static_cast<double>(cv.t1_max_deviation + 2) / std::sqrt(2.0 * n));
    EXPECT_GE(p_at, 0.01);
    EXPECT_LT(p_beyond, 0.01);
}

TEST(critical_values, block_frequency_bound_inverts_chi_squared)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double m = 4096.0;
    const double chi_at = static_cast<double>(cv.t2_sum_bound) / m;
    const double chi_beyond =
        static_cast<double>(cv.t2_sum_bound + 1) / m;
    EXPECT_GE(nist::igamc(8.0, chi_at / 2.0), 0.01);
    EXPECT_LT(nist::igamc(8.0, chi_beyond / 2.0), 0.0101);
}

TEST(critical_values, runs_intervals_tile_admissible_range)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    ASSERT_FALSE(cv.t3_intervals.empty());
    // Contiguous cover of the tau-admissible N_ones range.
    for (std::size_t i = 1; i < cv.t3_intervals.size(); ++i) {
        EXPECT_EQ(cv.t3_intervals[i].ones_lo,
                  cv.t3_intervals[i - 1].ones_hi + 1);
    }
    const double tau_ones = 2.0 * std::sqrt(65536.0);
    EXPECT_NEAR(static_cast<double>(cv.t3_intervals.front().ones_lo),
                65536.0 / 2.0 - tau_ones, 2.0);
    EXPECT_NEAR(static_cast<double>(cv.t3_intervals.back().ones_hi),
                65536.0 / 2.0 + tau_ones, 2.0);
}

TEST(critical_values, runs_bounds_match_reference_at_midpoint)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double n = 65536.0;
    const double e = nist::erfc_inv(0.01);
    for (const auto& iv : cv.t3_intervals) {
        const double ones =
            0.5 * static_cast<double>(iv.ones_lo + iv.ones_hi);
        const double pi = ones / n;
        const double center = 2.0 * n * pi * (1.0 - pi);
        const double c = 2.0 * std::sqrt(2.0 * n) * pi * (1.0 - pi) * e;
        EXPECT_NEAR(static_cast<double>(iv.runs_lo), center - c, 1.5);
        EXPECT_NEAR(static_cast<double>(iv.runs_hi), center + c, 1.5);
    }
}

TEST(critical_values, longest_run_weights_invert_pi)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const auto pi = nist::longest_run_category_probs(128, 4, 9);
    ASSERT_EQ(cv.t4_weights_q.size(), pi.size());
    for (std::size_t c = 0; c < pi.size(); ++c) {
        EXPECT_NEAR(static_cast<double>(cv.t4_weights_q[c]),
                    std::ldexp(1.0 / pi[c], 12), 1.0)
            << "category " << c;
    }
}

TEST(critical_values, cusum_bound_is_the_largest_accepting_z)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    EXPECT_GE(nist::cumulative_sums_p_value(cv.t13_z_bound, 65536), 0.01);
    EXPECT_LT(nist::cumulative_sums_p_value(cv.t13_z_bound + 1, 65536),
              0.01);
}

TEST(critical_values, serial_bounds_scale_with_n)
{
    const auto cv16 = compute_critical_values(cfg_high, 0.01);
    const auto cv20 = compute_critical_values(
        core::paper_design(20, core::tier::high), 0.01);
    EXPECT_NEAR(static_cast<double>(cv20.t11_del1_bound),
                16.0 * static_cast<double>(cv16.t11_del1_bound), 16.0)
        << "bound = n * chi2_crit is linear in n";
}

TEST(critical_values, tighter_alpha_widens_acceptance)
{
    // Smaller alpha = fewer type-1 errors = larger thresholds.  This is
    // the paper's flexibility property: only constants change.
    const auto strict = compute_critical_values(cfg_high, 0.001);
    const auto loose = compute_critical_values(cfg_high, 0.01);
    EXPECT_GT(strict.t1_max_deviation, loose.t1_max_deviation);
    EXPECT_GT(strict.t2_sum_bound, loose.t2_sum_bound);
    EXPECT_GT(strict.t4_sum_bound, loose.t4_sum_bound);
    EXPECT_GT(strict.t7_sum_bound, loose.t7_sum_bound);
    EXPECT_GT(strict.t8_sum_bound, loose.t8_sum_bound);
    EXPECT_GT(strict.t11_del1_bound, loose.t11_del1_bound);
    EXPECT_GT(strict.t13_z_bound, loose.t13_z_bound);
    EXPECT_LT(strict.t12_apen_min_q16, loose.t12_apen_min_q16)
        << "the ApEn acceptance is a lower bound, so it moves down";
}

TEST(critical_values, computed_only_for_enabled_tests)
{
    const auto cfg = core::paper_design(16, core::tier::light);
    const auto cv = compute_critical_values(cfg, 0.01);
    EXPECT_EQ(cv.t7_sum_bound, 0);
    EXPECT_TRUE(cv.t8_weights_q.empty());
    EXPECT_EQ(cv.t11_del1_bound, 0);
    EXPECT_GT(cv.t1_max_deviation, 0);
    EXPECT_GT(cv.t13_z_bound, 0);
}

TEST(critical_values, apen_calibration_is_cached_and_deterministic)
{
    const auto a = compute_critical_values(cfg_high, 0.01);
    const auto b = compute_critical_values(cfg_high, 0.01);
    EXPECT_EQ(a.t12_apen_min_q16, b.t12_apen_min_q16);
    EXPECT_GT(a.t12_apen_min_q16, 0);
    // The threshold sits below the Q16 image of ln 2 (the statistic's
    // asymptote) but within a plausible distance of it.
    const std::int64_t ln2_q16 = 45426;
    EXPECT_LT(a.t12_apen_min_q16, ln2_q16);
    EXPECT_GT(a.t12_apen_min_q16, ln2_q16 - 3000);
}

TEST(critical_values, rejects_nonsense_alpha)
{
    EXPECT_THROW(compute_critical_values(cfg_high, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(compute_critical_values(cfg_high, 0.7),
                 std::invalid_argument);
}

TEST(critical_values, smallest_design_at_extreme_alpha)
{
    // n = 128, the smallest paper design, at alpha = 1e-6 and just below
    // the 0.5 ceiling: every bound of the enabled tests must exist, stay
    // inside what a 128-bit window can reach, and widen monotonically as
    // alpha shrinks.
    for (const core::tier t : {core::tier::light, core::tier::medium}) {
        const auto cfg = core::paper_design(7, t);
        const auto strict = compute_critical_values(cfg, 1e-6);
        const auto mid = compute_critical_values(cfg, 0.01);
        const auto loose = compute_critical_values(cfg, 0.49);
        for (const auto* cv : {&strict, &mid, &loose}) {
            EXPECT_GT(cv->t1_max_deviation, 0) << cfg.name;
            EXPECT_LE(cv->t1_max_deviation, 128) << cfg.name;
            EXPECT_GT(cv->t2_sum_bound, 0) << cfg.name;
            EXPECT_GT(cv->t13_z_bound, 0) << cfg.name;
            EXPECT_LE(cv->t13_z_bound, 128) << cfg.name;
        }
        EXPECT_GE(strict.t1_max_deviation, mid.t1_max_deviation);
        EXPECT_GE(mid.t1_max_deviation, loose.t1_max_deviation);
        EXPECT_GT(strict.t1_max_deviation, loose.t1_max_deviation);
        EXPECT_GT(strict.t2_sum_bound, mid.t2_sum_bound);
        EXPECT_GT(mid.t2_sum_bound, loose.t2_sum_bound);
        EXPECT_GE(strict.t13_z_bound, mid.t13_z_bound);
        EXPECT_GE(mid.t13_z_bound, loose.t13_z_bound);
        EXPECT_GT(strict.t13_z_bound, loose.t13_z_bound);
        if (t == core::tier::medium) {
            EXPECT_GT(strict.t11_del1_bound, mid.t11_del1_bound);
            EXPECT_GT(mid.t11_del1_bound, loose.t11_del1_bound);
            EXPECT_LT(strict.t12_apen_min_q16, mid.t12_apen_min_q16);
            EXPECT_LT(mid.t12_apen_min_q16, loose.t12_apen_min_q16);
        }
        // alpha = 0.5 is outside the open interval the inversion accepts.
        EXPECT_THROW(compute_critical_values(cfg, 0.5), std::invalid_argument)
            << cfg.name;
        EXPECT_THROW(compute_critical_values(cfg, -1e-6),
                     std::invalid_argument)
            << cfg.name;
    }
}

TEST(critical_values, q_round_rejects_what_int64_cannot_hold)
{
    EXPECT_EQ(core::q_round(0.25, 12), 1024);
    EXPECT_EQ(core::q_round(-1.5, 0), -2);
    EXPECT_EQ(core::q_round(std::ldexp(1.0, 62), 0),
              std::int64_t{1} << 62);
    EXPECT_THROW((void)core::q_round(INFINITY, 12), std::domain_error);
    EXPECT_THROW((void)core::q_round(-INFINITY, 12), std::domain_error);
    EXPECT_THROW((void)core::q_round(NAN, 12), std::domain_error);
    EXPECT_THROW((void)core::q_round(std::ldexp(1.0, 70), 0),
                 std::domain_error);
    EXPECT_THROW((void)core::q_round(std::ldexp(1.0, 63), 0),
                 std::domain_error);
    EXPECT_THROW((void)core::q_round(1.0, 64), std::domain_error);
}

TEST(critical_values, zero_probability_category_is_rejected)
{
    // A 16-bit overlapping block holds at most 8 all-ones 9-bit matches,
    // so the ">= 9" category is empty and its weight 1/pi infinite.
    hw::block_config cfg = cfg_high;
    cfg.t8_log2_m = 4;
    cfg.t8_max_count = 9;
    EXPECT_THROW((void)compute_critical_values(cfg, 0.01),
                 std::domain_error);
    cfg.t8_max_count = 8;
    EXPECT_NO_THROW((void)compute_critical_values(cfg, 0.01));
}

TEST(critical_values, nist_alpha_range_is_supported)
{
    // NIST recommends alpha in [0.001, 0.01]; both ends must work for
    // every paper design.
    for (const auto& cfg : core::all_paper_designs()) {
        for (const double alpha : {0.001, 0.01}) {
            const auto cv = compute_critical_values(cfg, alpha);
            EXPECT_GT(cv.t1_max_deviation, 0) << cfg.name;
            EXPECT_GT(cv.t13_z_bound, 0) << cfg.name;
        }
    }
}

} // namespace
