// Tests of the exact combinatorial distributions: the longest-run
// recurrence against the NIST-tabulated category probabilities and against
// brute-force enumeration; the overlapping-template automaton DP against
// the published pi table, Monte-Carlo and the paper designs' parameters;
// aperiodic template generation.
#include "core/design_config.hpp"
#include "nist/distributions.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <numeric>
#include <string>
#include <vector>

namespace {

using namespace otf;
using namespace otf::nist;

TEST(longest_run_probs, matches_nist_table_m8)
{
    // SP 800-22 section 3.4, M = 8, categories {<=1, 2, 3, >=4}.
    const auto pi = longest_run_category_probs(8, 1, 4);
    ASSERT_EQ(pi.size(), 4u);
    EXPECT_NEAR(pi[0], 0.2148, 5e-5);
    EXPECT_NEAR(pi[1], 0.3672, 5e-5);
    EXPECT_NEAR(pi[2], 0.2305, 5e-5);
    EXPECT_NEAR(pi[3], 0.1875, 5e-5);
}

TEST(longest_run_probs, matches_nist_table_m128)
{
    const auto pi = longest_run_category_probs(128, 4, 9);
    ASSERT_EQ(pi.size(), 6u);
    EXPECT_NEAR(pi[0], 0.1174, 5e-4);
    EXPECT_NEAR(pi[1], 0.2430, 5e-4);
    EXPECT_NEAR(pi[2], 0.2493, 5e-4);
    EXPECT_NEAR(pi[3], 0.1752, 5e-4);
    EXPECT_NEAR(pi[4], 0.1027, 5e-4);
    EXPECT_NEAR(pi[5], 0.1124, 5e-4);
}

TEST(longest_run_probs, sums_to_one_for_arbitrary_m)
{
    for (const unsigned m : {8u, 64u, 128u, 1024u, 8192u}) {
        const auto cats = recommended_longest_run_categories(m);
        const auto pi = longest_run_category_probs(m, cats.v_lo, cats.v_hi);
        const double total = std::accumulate(pi.begin(), pi.end(), 0.0);
        EXPECT_NEAR(total, 1.0, 1e-12) << "M=" << m;
        for (const double p : pi) {
            EXPECT_GT(p, 0.0) << "M=" << m;
        }
    }
}

TEST(longest_run_probs, matches_brute_force_enumeration)
{
    // Enumerate all 2^12 strings of length 12 and bin their longest runs.
    const unsigned length = 12;
    std::vector<unsigned> histogram(length + 1, 0);
    for (unsigned v = 0; v < (1u << length); ++v) {
        unsigned longest = 0;
        unsigned current = 0;
        for (unsigned i = 0; i < length; ++i) {
            if ((v >> i) & 1u) {
                ++current;
                longest = std::max(longest, current);
            } else {
                current = 0;
            }
        }
        ++histogram[longest];
    }
    for (unsigned k = 0; k <= length; ++k) {
        unsigned at_most = 0;
        for (unsigned j = 0; j <= k; ++j) {
            at_most += histogram[j];
        }
        const double expected =
            static_cast<double>(at_most) / (1u << length);
        EXPECT_NEAR(prob_longest_run_at_most(length, k), expected, 1e-12)
            << "k=" << k;
    }
}

TEST(overlapping_probs, reproduces_nist_published_pi)
{
    // SP 800-22 section 3.8 tabulates pi for m = 9, M = 1032, all-ones
    // template: {0.364091, 0.185659, 0.139381, 0.100571, 0.070432,
    // 0.139865}.  The automaton DP reproduces all six digits.
    const auto pi =
        overlapping_template_category_probs((1u << 9) - 1, 9, 1032, 5);
    ASSERT_EQ(pi.size(), 6u);
    EXPECT_NEAR(pi[0], 0.364091, 1e-6);
    EXPECT_NEAR(pi[1], 0.185659, 1e-6);
    EXPECT_NEAR(pi[2], 0.139381, 1e-6);
    EXPECT_NEAR(pi[3], 0.100571, 1e-6);
    EXPECT_NEAR(pi[4], 0.070432, 1e-6);
    EXPECT_NEAR(pi[5], 0.139865, 1e-6);
}

TEST(overlapping_probs, battery_parameters_are_pinned)
{
    // m = 9, M = 1024, K = 5: the offline battery's overlapping test and
    // the paper designs' t8 default.  Every weight 1/pi the platform
    // derives from these must be finite.
    const auto pi =
        overlapping_template_category_probs((1u << 9) - 1, 9, 1024, 5);
    const std::vector<double> want = {0.366974, 0.18567,   0.139019,
                                      0.100085, 0.0699535, 0.138299};
    ASSERT_EQ(pi.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
        EXPECT_NEAR(pi[c], want[c], 1e-6) << "category " << c;
    }
}

TEST(overlapping_probs, every_paper_design_has_positive_categories)
{
    unsigned designs = 0;
    for (const hw::block_config& cfg : core::all_paper_designs()) {
        if (!cfg.tests.has(hw::test_id::overlapping_template)) {
            continue;
        }
        ++designs;
        const auto pi = overlapping_template_category_probs(
            cfg.t8_template, cfg.template_length, 1u << cfg.t8_log2_m,
            cfg.t8_max_count);
        ASSERT_EQ(pi.size(), cfg.t8_max_count + 1u) << cfg.name;
        for (std::size_t c = 0; c < pi.size(); ++c) {
            EXPECT_GT(pi[c], 0.0) << cfg.name << " category " << c;
        }
        EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12)
            << cfg.name;
    }
    EXPECT_GT(designs, 0u);
}

TEST(overlapping_probs, impossible_counts_have_probability_zero)
{
    // At most 8 overlapping all-ones 9-bit matches fit in 16 bits.
    const auto pi =
        overlapping_template_category_probs((1u << 9) - 1, 9, 16, 9);
    ASSERT_EQ(pi.size(), 10u);
    EXPECT_GT(pi[8], 0.0);
    EXPECT_EQ(pi[9], 0.0);
    EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12);
}

TEST(overlapping_probs, sums_to_one)
{
    for (const unsigned block : {64u, 512u, 1024u}) {
        const auto pi = overlapping_template_category_probs(
            (1u << 9) - 1, 9, block, 5);
        EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12);
    }
}

TEST(overlapping_probs, matches_monte_carlo_for_short_blocks)
{
    // 16-bit blocks, template 101: enumerate all 65536 blocks exactly.
    const std::uint32_t templ = 0b101;
    const unsigned m = 3;
    const unsigned block = 16;
    std::vector<double> histogram(4, 0.0);
    for (std::uint32_t v = 0; v < (1u << block); ++v) {
        unsigned hits = 0;
        for (unsigned i = 0; i + m <= block; ++i) {
            const std::uint32_t w = (v >> (block - m - i))
                & ((1u << m) - 1u);
            if (w == templ) {
                ++hits;
            }
        }
        ++histogram[std::min<unsigned>(hits, 3u)];
    }
    for (auto& h : histogram) {
        h /= static_cast<double>(1u << block);
    }
    const auto pi = overlapping_template_category_probs(templ, m, block, 3);
    ASSERT_EQ(pi.size(), 4u);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_NEAR(pi[c], histogram[c], 1e-12) << "category " << c;
    }
}

TEST(non_overlapping_moments, matches_nist_example)
{
    // 2.7.4: m = 3, M = 10: mu = 1, sigma^2 = 0.46875.
    const auto mv = non_overlapping_template_moments(3, 10);
    EXPECT_NEAR(mv.mean, 1.0, 1e-12);
    EXPECT_NEAR(mv.variance, 0.46875, 1e-12);
}

TEST(aperiodic_templates, borders_detected)
{
    EXPECT_TRUE(is_aperiodic_template(0b000000001u, 9));
    EXPECT_TRUE(is_aperiodic_template(0b011111111u, 9)); // 0111...11
    EXPECT_FALSE(is_aperiodic_template(0b101010101u, 9)); // period 2
    EXPECT_FALSE(is_aperiodic_template((1u << 9) - 1u, 9)); // all ones
    EXPECT_FALSE(is_aperiodic_template(0u, 9));             // all zeros
}

TEST(aperiodic_templates, matches_independent_border_check)
{
    // Cross-check against a string-based border test for every 7-bit value.
    for (std::uint32_t t = 0; t < (1u << 7); ++t) {
        std::string s(7, '0');
        for (unsigned i = 0; i < 7; ++i) {
            s[i] = ((t >> (6 - i)) & 1u) ? '1' : '0';
        }
        bool has_border = false;
        for (unsigned j = 1; j < 7; ++j) {
            if (s.substr(0, 7 - j) == s.substr(j)) {
                has_border = true;
                break;
            }
        }
        EXPECT_EQ(is_aperiodic_template(t, 7), !has_border) << "t=" << t;
    }
}

TEST(aperiodic_templates, nist_count_for_m9)
{
    // SP 800-22 appendix: there are 148 aperiodic templates of length 9
    // listed for the non-overlapping test (the enumeration counts both
    // orientations).
    const auto templates = aperiodic_templates(9);
    EXPECT_EQ(templates.size(), 148u);
    for (const std::uint32_t t : templates) {
        EXPECT_TRUE(is_aperiodic_template(t, 9));
    }
}

} // namespace
