// Tests of the adversarial source-model library: word-lane vs per-bit
// bit-exactness for every model (including ragged interleavings and
// stacked decorators), statistical parameter fidelity, severity
// semantics and parameter validation.
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <vector>

namespace {

using namespace otf;
using namespace otf::trng;
using test::fixture_seed;

using model_builder =
    std::function<std::unique_ptr<source_model>(std::uint64_t seed)>;

std::unique_ptr<entropy_source> healthy(std::uint64_t seed)
{
    return std::make_unique<ideal_source>(seed);
}

/// Every model in the library, built over an ideal inner source.
std::vector<std::pair<std::string, model_builder>> all_models()
{
    return {
        {"rtn",
         [](std::uint64_t s) {
             return std::make_unique<rtn_source>(healthy(s), s + 1);
         }},
        {"bias-drift",
         [](std::uint64_t s) {
             return std::make_unique<bias_drift_source>(healthy(s), s + 1);
         }},
        {"lockin",
         [](std::uint64_t s) {
             return std::make_unique<lockin_source>(healthy(s), s + 1);
         }},
        {"fault",
         [](std::uint64_t s) {
             return std::make_unique<fault_source>(healthy(s), s + 1);
         }},
        {"sram-collapse",
         [](std::uint64_t s) {
             return std::make_unique<entropy_collapse_source>(healthy(s),
                                                              s + 1);
         }},
        {"substitution",
         [](std::uint64_t s) {
             return std::make_unique<substitution_source>(healthy(s),
                                                          s + 1);
         }},
        {"stacked rtn<bias-drift>",
         [](std::uint64_t s) {
             return std::make_unique<rtn_source>(
                 std::make_unique<bias_drift_source>(healthy(s), s + 1),
                 s + 2);
         }},
    };
}

double ones_fraction(const bit_sequence& seq)
{
    return static_cast<double>(seq.count_ones())
        / static_cast<double>(seq.size());
}

TEST(source_models, word_lane_is_bit_exact_with_per_bit_lane)
{
    // The base-class contract: fill_words and next_bit drain the same
    // word stream, so any pure split must agree bit for bit.
    for (const auto& [name, build] : all_models()) {
        auto via_bits = build(fixture_seed(1));
        auto via_words = build(fixture_seed(1));
        const bit_sequence seq = via_bits->generate(4096);
        const std::vector<std::uint64_t> words =
            via_words->generate_words(4096 / 64);
        EXPECT_EQ(seq, bit_sequence::from_words(words, 4096)) << name;
    }
}

TEST(source_models, ragged_interleaving_is_bit_exact)
{
    // Mixed next_bit / fill_words drains with ragged sizes exercise the
    // splice paths (partial output buffer ahead of a bulk fill).
    const std::size_t chunks[] = {1, 7, 64, 3, 128, 61, 192, 5};
    for (const auto& [name, build] : all_models()) {
        auto oracle = build(fixture_seed(2));
        auto ragged = build(fixture_seed(2));
        bit_sequence want;
        bit_sequence got;
        std::vector<std::uint64_t> words; // reused across chunks
        for (const std::size_t bits : chunks) {
            for (std::size_t i = 0; i < bits; ++i) {
                want.push_back(oracle->next_bit());
            }
            if (bits % 64 == 0) {
                ragged->generate_words(words, bits / 64);
                const auto part = bit_sequence::from_words(words, bits);
                for (std::size_t i = 0; i < part.size(); ++i) {
                    got.push_back(part[i]);
                }
            } else {
                for (std::size_t i = 0; i < bits; ++i) {
                    got.push_back(ragged->next_bit());
                }
            }
        }
        EXPECT_EQ(want, got) << name;
    }
}

TEST(source_models, reproducible_for_equal_seeds)
{
    for (const auto& [name, build] : all_models()) {
        auto a = build(fixture_seed(3));
        auto b = build(fixture_seed(3));
        EXPECT_EQ(a->generate(2048), b->generate(2048)) << name;
    }
}

TEST(source_models, severity_zero_is_transparent)
{
    // At severity 0 every model must pass the inner stream through
    // unchanged (the healthy operating point of a scheduled scenario).
    for (const auto& [name, build] : all_models()) {
        auto model = build(fixture_seed(4));
        model->set_severity(0.0);
        ideal_source reference(fixture_seed(4));
        if (name.rfind("stacked", 0) == 0) {
            // A stack is only transparent if every layer is; the builder
            // gives us the top layer, so drive the inner one too.
            auto* inner_model =
                dynamic_cast<source_model*>(&model->inner());
            ASSERT_NE(inner_model, nullptr);
            inner_model->set_severity(0.0);
        }
        EXPECT_EQ(model->generate(4096), reference.generate(4096)) << name;
    }
}

TEST(source_models, severity_is_validated_and_reported)
{
    auto model = std::make_unique<lockin_source>(healthy(1), 2);
    EXPECT_DOUBLE_EQ(model->severity(), 1.0);
    model->set_severity(0.25);
    EXPECT_DOUBLE_EQ(model->severity(), 0.25);
    EXPECT_THROW(model->set_severity(-0.1), std::invalid_argument);
    EXPECT_THROW(model->set_severity(1.5), std::invalid_argument);
}

TEST(source_models, null_inner_is_rejected)
{
    EXPECT_THROW(rtn_source(nullptr, 1), std::invalid_argument);
}

TEST(rtn_model, rejects_sub_bit_healthy_dwell)
{
    // dwell_on * (1 - duty) / duty < 1 would make geometric_dwell throw
    // mid-stream; the constructor must reject it up front.
    EXPECT_THROW(
        rtn_source(healthy(1), 2, {.dwell_on = 2.0, .duty = 0.9}),
        std::invalid_argument);
}

TEST(bernoulli_mask_helper, empirical_density_matches_q)
{
    xoshiro256ss rng(fixture_seed(5));
    for (const unsigned q : {0u, 32u, 128u, 224u, 256u}) {
        std::size_t ones = 0;
        const std::size_t words = 4096;
        for (std::size_t i = 0; i < words; ++i) {
            ones += static_cast<std::size_t>(
                std::popcount(bernoulli_mask(rng, q)));
        }
        const double got =
            static_cast<double>(ones) / (64.0 * static_cast<double>(words));
        EXPECT_NEAR(got, q / 256.0, 0.01) << "q=" << q;
    }
}

TEST(rtn_model, bursts_pin_the_output_level)
{
    rtn_source src(healthy(fixture_seed(6)), fixture_seed(7),
                   {.dwell_on = 128.0, .duty = 0.5, .level = true});
    const bit_sequence seq = src.generate(1 << 16);
    // Half the stream sits in all-ones bursts: strong excess of ones and
    // a longest run far beyond anything a healthy source produces.
    EXPECT_GT(ones_fraction(seq), 0.65);
    unsigned longest = 0;
    unsigned current = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        current = seq[i] ? current + 1 : 0;
        longest = std::max(longest, current);
    }
    EXPECT_GE(longest, 100u);
}

TEST(rtn_model, severity_scales_the_duty_cycle)
{
    rtn_source mild(healthy(fixture_seed(8)), fixture_seed(9));
    mild.set_severity(0.1);
    rtn_source harsh(healthy(fixture_seed(8)), fixture_seed(9));
    const double p_mild = ones_fraction(mild.generate(1 << 16));
    const double p_harsh = ones_fraction(harsh.generate(1 << 16));
    EXPECT_LT(p_mild, 0.57);
    EXPECT_GT(p_harsh, p_mild + 0.1);
}

TEST(bias_drift_model, walk_drifts_the_marginal_outwards)
{
    bias_drift_source src(healthy(fixture_seed(10)), fixture_seed(11));
    // Early stream: walk near 0, marginal near 1/2.
    const double early = ones_fraction(src.generate(1 << 14));
    // Skip ahead: the outward-drifting walk saturates at max_shift_q.
    (void)src.generate(1 << 20);
    const double late = ones_fraction(src.generate(1 << 16));
    EXPECT_NEAR(early, 0.5, 0.03);
    EXPECT_GT(late, 0.58);
    EXPECT_NEAR(late, 0.5 + src.current_shift(), 0.02);
}

TEST(bias_drift_model, rejects_bad_parameters)
{
    EXPECT_THROW(bias_drift_source(healthy(1), 2, {.step_bits = 100}),
                 std::invalid_argument);
    EXPECT_THROW(bias_drift_source(healthy(1), 2, {.max_shift_q = 300}),
                 std::invalid_argument);
    EXPECT_THROW(
        bias_drift_source(healthy(1), 2, {.p_out = 0.7, .p_back = 0.7}),
        std::invalid_argument);
}

TEST(lockin_model, full_lock_reproduces_the_pattern)
{
    lockin_source src(healthy(fixture_seed(12)), fixture_seed(13),
                      bit_sequence::from_string("01"));
    EXPECT_EQ(src.generate(8).to_string(), "01010101");
}

TEST(lockin_model, full_lock_wraps_patterns_of_any_period)
{
    // Periods around and across the 64-bit word: the locked stream is the
    // pattern repeated, whatever the phase at each word.
    for (const std::size_t period : {1u, 2u, 5u, 63u, 64u, 65u, 130u}) {
        trng::ideal_source pattern_src(fixture_seed(16) + period);
        const bit_sequence pattern = pattern_src.generate(period);
        lockin_source src(healthy(fixture_seed(12)), fixture_seed(13),
                          pattern);
        const bit_sequence seq = src.generate(1000);
        for (std::size_t i = 0; i < seq.size(); ++i) {
            ASSERT_EQ(seq[i], pattern[i % period])
                << "period " << period << " bit " << i;
        }
    }
}

TEST(lockin_model, partial_lock_raises_the_transition_rate)
{
    lockin_source src(healthy(fixture_seed(14)), fixture_seed(15));
    src.set_severity(0.8);
    const bit_sequence seq = src.generate(1 << 15);
    std::size_t transitions = 0;
    for (std::size_t i = 1; i < seq.size(); ++i) {
        transitions += seq[i] != seq[i - 1] ? 1 : 0;
    }
    const double rate =
        static_cast<double>(transitions) / static_cast<double>(seq.size());
    // 0.8 lock on "01": both bits locked always alternate (0.64), mixed
    // pairs are fair -- P[transition] = 0.64 + 0.36 * 0.5 = 0.82.
    EXPECT_NEAR(rate, 0.82, 0.02);
    EXPECT_THROW(lockin_source(healthy(1), 2, bit_sequence{}),
                 std::invalid_argument);
}

TEST(fault_model, stuck_bits_shift_the_marginal)
{
    fault_source src(healthy(fixture_seed(16)), fixture_seed(17),
                     {.stuck_prob = 0.5, .stuck_value = true,
                      .dropout_prob = 0.0});
    // P[1] = 0.5 stuck + 0.5 * 0.5 fair = 0.75.
    EXPECT_NEAR(ones_fraction(src.generate(1 << 16)), 0.75, 0.01);
}

TEST(fault_model, dropout_repeats_the_previous_bit)
{
    fault_source src(healthy(fixture_seed(18)), fixture_seed(19),
                     {.stuck_prob = 0.0, .dropout_prob = 0.5});
    const bit_sequence seq = src.generate(1 << 16);
    std::size_t repeats = 0;
    for (std::size_t i = 1; i < seq.size(); ++i) {
        repeats += seq[i] == seq[i - 1] ? 1 : 0;
    }
    // P[repeat] = 0.5 dropout + 0.5 * 0.5 fair = 0.75; marginal unmoved.
    EXPECT_NEAR(static_cast<double>(repeats)
                    / static_cast<double>(seq.size() - 1),
                0.75, 0.01);
    EXPECT_NEAR(ones_fraction(seq), 0.5, 0.02);
    EXPECT_THROW(fault_source(healthy(1), 2, {.stuck_prob = 1.5}),
                 std::invalid_argument);
}

TEST(collapse_model, full_collapse_is_the_periodic_fingerprint)
{
    entropy_collapse_source src(healthy(fixture_seed(20)), fixture_seed(21),
                                {.fingerprint_bits = 256});
    const bit_sequence seq = src.generate(1024);
    // severity 1, max_fraction 1: the output is the fingerprint looped.
    for (std::size_t i = 256; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], seq[i - 256]) << "position " << i;
    }
    EXPECT_THROW(entropy_collapse_source(healthy(1), 2,
                                         {.fingerprint_bits = 100}),
                 std::invalid_argument);
}

TEST(collapse_model, skew_biases_the_collapsed_cells)
{
    entropy_collapse_source src(healthy(fixture_seed(22)), fixture_seed(23),
                                {.fingerprint_bits = 4096,
                                 .cell_one_prob = 0.8});
    EXPECT_NEAR(ones_fraction(src.generate(1 << 15)), 0.8, 0.03);
}

TEST(substitution_model, full_attack_is_the_looped_block)
{
    substitution_source src(healthy(fixture_seed(24)), fixture_seed(25),
                            {.period_bits = 128});
    const bit_sequence seq = src.generate(1024);
    for (std::size_t i = 128; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], seq[i - 128]) << "position " << i;
    }
    // The substitute is balanced -- only its periodicity is wrong.
    EXPECT_NEAR(ones_fraction(seq), 0.5, 0.1);
    EXPECT_THROW(substitution_source(healthy(1), 2, {.period_bits = 96}),
                 std::invalid_argument);
}

} // namespace
