// Packed-lane equivalence suite: the per-bit path is the oracle, and every
// batched path must be bit-exact against it -- the span lane's engine
// counters through the whole register map, the health-test engines' span
// kernels on ragged chunks, bulk word generation, and the monitor's
// end-to-end verdicts.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "hw/health_tests.hpp"
#include "hw/testing_block.hpp"
#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include "support/fixed_seed.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <type_traits>
#include <vector>

namespace {

using namespace otf;
using core::paper_design;
using core::tier;
using test::fixture_seed;
using test::kCanonicalSeed;

// ---------------------------------------------------------------------------
// Sequence classes that stress different batching corner cases.
// ---------------------------------------------------------------------------

bit_sequence random_sequence(std::uint64_t seed, std::uint64_t n)
{
    trng::ideal_source src(seed);
    return src.generate(n);
}

bit_sequence alternating_sequence(std::uint64_t n)
{
    bit_sequence seq;
    for (std::uint64_t i = 0; i < n; ++i) {
        seq.push_back((i & 1) != 0);
    }
    return seq;
}

// Repeats the non-overlapping test's 9-bit template so matches straddle
// word and block boundaries.
bit_sequence template_stress_sequence(std::uint64_t n)
{
    const bit_sequence pattern = bit_sequence::from_string("000000001");
    bit_sequence seq;
    for (std::uint64_t i = 0; i < n; ++i) {
        seq.push_back(pattern[i % pattern.size()]);
    }
    return seq;
}

std::vector<bit_sequence> stress_sequences(const hw::block_config& cfg)
{
    return {random_sequence(kCanonicalSeed, cfg.n()),
            random_sequence(fixture_seed(1), cfg.n()),
            bit_sequence(cfg.n(), true),
            bit_sequence(cfg.n(), false),
            alternating_sequence(cfg.n()),
            template_stress_sequence(cfg.n())};
}

void expect_identical_registers(const hw::testing_block& oracle,
                                const hw::testing_block& fast,
                                const std::string& context)
{
    ASSERT_EQ(oracle.registers().size(), fast.registers().size());
    for (std::size_t i = 0; i < oracle.registers().size(); ++i) {
        EXPECT_EQ(oracle.registers().read_raw(i),
                  fast.registers().read_raw(i))
            << context << ": register "
            << oracle.registers().entry(i).name;
    }
    EXPECT_EQ(oracle.bits_consumed(), fast.bits_consumed()) << context;
    EXPECT_EQ(oracle.done(), fast.done()) << context;
}

/// Feed a whole sequence through the span lane in one call and finish.
void run_span(hw::testing_block& block, const bit_sequence& seq)
{
    const std::vector<std::uint64_t> words = seq.to_words();
    block.feed_span(words.data(), seq.size());
    block.finish();
}

// ---------------------------------------------------------------------------
// Testing block: run() vs one whole-window feed_span() over every paper
// design point.
// ---------------------------------------------------------------------------

class word_path_designs
    : public ::testing::TestWithParam<hw::block_config> {};

TEST_P(word_path_designs, feed_span_matches_run_bit_exactly)
{
    const hw::block_config cfg = GetParam();
    for (const bit_sequence& seq : stress_sequences(cfg)) {
        hw::testing_block oracle(cfg);
        hw::testing_block fast(cfg);
        oracle.run(seq);
        run_span(fast, seq);
        expect_identical_registers(oracle, fast, cfg.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    all_paper_designs, word_path_designs,
    ::testing::ValuesIn(core::all_paper_designs()),
    [](const ::testing::TestParamInfo<hw::block_config>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (c == '=' || c == ' ') {
                c = '_';
            }
        }
        return name;
    });

// ---------------------------------------------------------------------------
// Option coverage: marginal transfer and double buffering.
// ---------------------------------------------------------------------------

TEST(word_path, marginal_transfer_configuration_is_bit_exact)
{
    hw::block_config cfg = paper_design(16, tier::high);
    cfg.serial_transfer_marginals = true;
    const bit_sequence seq = random_sequence(fixture_seed(2), cfg.n());
    hw::testing_block oracle(cfg);
    hw::testing_block fast(cfg);
    oracle.run(seq);
    run_span(fast, seq);
    expect_identical_registers(oracle, fast, "marginal transfer");
}

TEST(word_path, double_buffered_configuration_is_bit_exact)
{
    hw::block_config cfg = paper_design(16, tier::high);
    cfg.double_buffered = true;
    const bit_sequence seq = random_sequence(fixture_seed(3), cfg.n());
    hw::testing_block oracle(cfg);
    hw::testing_block fast(cfg);
    oracle.run(seq);
    run_span(fast, seq);
    expect_identical_registers(oracle, fast, "double buffered");

    // Second window through each lane after restart: the latched first
    // window must be replaced by identical second-window results.
    const bit_sequence seq2 = random_sequence(fixture_seed(4), cfg.n());
    oracle.restart();
    fast.restart();
    oracle.run(seq2);
    run_span(fast, seq2);
    expect_identical_registers(oracle, fast, "double buffered window 2");
}

// ---------------------------------------------------------------------------
// Irregular chunking: feed_span with ragged sub-word splits.
// ---------------------------------------------------------------------------

TEST(word_path, ragged_chunk_sizes_match_per_bit)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    const bit_sequence seq = random_sequence(fixture_seed(5), cfg.n());

    hw::testing_block oracle(cfg);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        oracle.feed(seq[i]);
    }
    oracle.finish();

    hw::testing_block fast(cfg);
    trng::xoshiro256ss chunk_rng(fixture_seed(6));
    std::size_t pos = 0;
    while (pos < seq.size()) {
        std::size_t take = 1 + chunk_rng.next() % 64;
        if (take > seq.size() - pos) {
            take = seq.size() - pos;
        }
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < take; ++i) {
            word |= static_cast<std::uint64_t>(seq[pos + i] ? 1 : 0) << i;
        }
        fast.feed_span(&word, take);
        pos += take;
    }
    fast.finish();
    expect_identical_registers(oracle, fast, "ragged chunks");
}

TEST(word_path, span_lane_odd_chunk_lengths_match_per_bit)
{
    // Fixed odd chunk lengths (none a multiple of 64) walk the span
    // entry point through every word offset: each chunk exercises the
    // kernels' masked tail, and each next chunk starts unaligned.
    const hw::block_config cfg = paper_design(16, tier::high);
    const bit_sequence seq = random_sequence(fixture_seed(14), cfg.n());

    hw::testing_block oracle(cfg);
    oracle.run(seq);

    for (const std::size_t chunk_bits :
         {std::size_t{100}, std::size_t{997}, std::size_t{4097}}) {
        hw::testing_block fast(cfg);
        std::size_t pos = 0;
        while (pos < seq.size()) {
            const std::size_t take =
                std::min(chunk_bits, seq.size() - pos);
            std::vector<std::uint64_t> words((take + 63) / 64, 0);
            for (std::size_t i = 0; i < take; ++i) {
                words[i / 64] |=
                    static_cast<std::uint64_t>(seq[pos + i] ? 1 : 0)
                    << (i % 64);
            }
            fast.feed_span(words.data(), take);
            pos += take;
        }
        fast.finish();
        expect_identical_registers(
            oracle, fast,
            "span chunks of " + std::to_string(chunk_bits));
    }
}

TEST(word_path, span_lane_rejects_overrun)
{
    hw::testing_block block(paper_design(7, tier::light));
    const std::vector<std::uint64_t> words(3, 0);
    // 192 bits into a 128-bit sequence must be refused up front.
    EXPECT_THROW(block.feed_span(words.data(), 192), std::logic_error);
    block.feed_span(words.data(), 128);
    EXPECT_THROW(block.feed_span(words.data(), 1), std::logic_error);
}

// An engine that watches the shared template window cannot inherit a
// generic per-bit span loop (the block advances the shared register only
// after the span, so that loop would read a stale window): consume_span is
// pure, so such an engine cannot be instantiated until it brings its own
// span kernel.
class span_less_engine : public hw::engine {
public:
    span_less_engine() : hw::engine("span_less") {}
    void consume(bool, std::uint64_t) override {}
    void add_registers(hw::register_map&) const override {}

protected:
    rtl::resources self_cost() const override { return {}; }
    void self_reset() override {}
};
static_assert(std::is_abstract_v<span_less_engine>,
              "an engine without its own consume_span must stay abstract");

// ---------------------------------------------------------------------------
// SP 800-90B health-test engines.
// ---------------------------------------------------------------------------

// APT shapes: a 2^10-bit window, whose segments are whole words on
// aligned chunks, and a 2^4-bit window, where every segment sits inside
// one word at some bit offset.
struct apt_shape {
    unsigned log2_window;
    unsigned cutoff;
};
constexpr apt_shape kAptShapes[] = {{10, 700}, {4, 13}};

struct health_pair {
    explicit health_pair(apt_shape shape)
        : apt_oracle(shape.log2_window, shape.cutoff),
          apt_fast(shape.log2_window, shape.cutoff)
    {
    }
    hw::repetition_count_hw rct_oracle{21}, rct_fast{21};
    hw::adaptive_proportion_hw apt_oracle, apt_fast;
};

// Runs an RCT and an APT of every shape in kAptShapes over `seq` on both
// lanes (per-bit oracle vs consume_span on ragged chunks), checks that
// the lanes agree, then hands each finished pair to `expect` with a
// context string naming the shape.
template <typename Expect>
void drive_health_pairs(const bit_sequence& seq, unsigned chunk_seed,
                        Expect expect)
{
    for (const apt_shape shape : kAptShapes) {
        const std::string ctx =
            "APT window 2^" + std::to_string(shape.log2_window);
        health_pair p(shape);
        // Counters are compared after every chunk: the alarms are sticky
        // and the final count covers only the last window.
        trng::xoshiro256ss chunk_rng(chunk_seed);
        std::size_t pos = 0;
        while (pos < seq.size()) {
            std::size_t take = 1 + chunk_rng.next() % 64;
            if (take > seq.size() - pos) {
                take = seq.size() - pos;
            }
            std::uint64_t word = 0;
            for (std::size_t i = 0; i < take; ++i) {
                p.rct_oracle.consume(seq[pos + i], pos + i);
                p.apt_oracle.consume(seq[pos + i], pos + i);
                word |= static_cast<std::uint64_t>(seq[pos + i] ? 1 : 0)
                        << i;
            }
            p.rct_fast.consume_span(&word, take, pos);
            p.apt_fast.consume_span(&word, take, pos);
            pos += take;
            ASSERT_EQ(p.rct_oracle.current_run(), p.rct_fast.current_run())
                << ctx << ", after bit " << pos;
            ASSERT_EQ(p.apt_oracle.current_count(),
                      p.apt_fast.current_count())
                << ctx << ", after bit " << pos;
        }
        EXPECT_EQ(p.rct_oracle.longest_run(), p.rct_fast.longest_run())
            << ctx;
        EXPECT_EQ(p.rct_oracle.alarm(), p.rct_fast.alarm()) << ctx;
        EXPECT_EQ(p.apt_oracle.alarm(), p.apt_fast.alarm()) << ctx;
        expect(ctx, p);
    }
}

TEST(word_path, health_tests_match_per_bit_on_random_stream)
{
    const bit_sequence seq = random_sequence(fixture_seed(7), 1 << 14);
    drive_health_pairs(seq, 11, [](const std::string&, const health_pair&) {
    });
}

TEST(word_path, health_tests_match_per_bit_on_sticky_stream)
{
    // Sticky source: long equal runs trip the RCT on both lanes alike
    // (runs average ~33 bits, far beyond the cutoff of 21; the 2^10-bit
    // APT stays quiet because the 0-runs and 1-runs balance within its
    // window).
    trng::markov_source src(fixture_seed(8), 0.97);
    const bit_sequence seq = src.generate(1 << 12);
    drive_health_pairs(seq, 13,
                       [](const std::string& ctx, const health_pair& p) {
                           EXPECT_TRUE(p.rct_fast.alarm()) << ctx;
                       });
}

TEST(word_path, health_tests_match_per_bit_on_stuck_stream)
{
    // Total failure: every bit matches the window reference, so the APT
    // must alarm on both lanes (and the RCT trivially does too).
    const bit_sequence seq(1 << 12, true);
    drive_health_pairs(seq, 17,
                       [](const std::string& ctx, const health_pair& p) {
                           EXPECT_TRUE(p.rct_fast.alarm()) << ctx;
                           EXPECT_TRUE(p.apt_fast.alarm()) << ctx;
                       });
}

// ---------------------------------------------------------------------------
// Bulk word generation.
// ---------------------------------------------------------------------------

TEST(word_path, xoshiro_next_bits64_matches_bit_stream)
{
    trng::xoshiro256ss bits(kCanonicalSeed);
    trng::xoshiro256ss words(kCanonicalSeed);
    // Misalign the word generator's internal buffer first.
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(bits.next_bit(), words.next_bit());
    }
    for (int w = 0; w < 8; ++w) {
        const std::uint64_t word = words.next_bits64();
        for (unsigned i = 0; i < 64; ++i) {
            ASSERT_EQ(bits.next_bit(), ((word >> i) & 1u) != 0)
                << "word " << w << " bit " << i;
        }
    }
    // And bits drawn after the bulk run stay in sync.
    for (int i = 0; i < 13; ++i) {
        EXPECT_EQ(bits.next_bit(), words.next_bit());
    }
}

TEST(word_path, ideal_source_fill_words_matches_bit_stream)
{
    trng::ideal_source bit_src(fixture_seed(9));
    trng::ideal_source word_src(fixture_seed(9));
    const auto words = word_src.generate_words(16);
    const bit_sequence seq = bit_src.generate(16 * 64);
    EXPECT_EQ(bit_sequence::from_words(words, 16 * 64), seq);
}

TEST(word_path, default_fill_words_matches_bit_stream)
{
    // biased_source does not override fill_words: the base-class
    // assembler must still be bit-exact.
    trng::biased_source bit_src(fixture_seed(10), 0.3);
    trng::biased_source word_src(fixture_seed(10), 0.3);
    const auto words = word_src.generate_words(4);
    const bit_sequence seq = bit_src.generate(4 * 64);
    EXPECT_EQ(bit_sequence::from_words(words, 4 * 64), seq);
}

TEST(word_path, bit_sequence_word_round_trip)
{
    const bit_sequence seq = random_sequence(fixture_seed(11), 1000);
    const auto words = seq.to_words();
    EXPECT_EQ(words.size(), 16u); // ceil(1000 / 64)
    EXPECT_EQ(bit_sequence::from_words(words, 1000), seq);
    EXPECT_THROW(bit_sequence::from_words(words, 1025), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Monitor: end-to-end verdict equivalence and length validation.
// ---------------------------------------------------------------------------

TEST(word_path, monitor_span_lane_produces_identical_verdicts)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    core::monitor oracle(cfg, 0.01);
    core::monitor fast(cfg, 0.01);
    trng::ideal_source bit_src(fixture_seed(12));
    trng::ideal_source word_src(fixture_seed(12));
    std::vector<std::uint64_t> window(cfg.n() / 64);
    for (int w = 0; w < 3; ++w) {
        const auto a = oracle.test_window(bit_src);
        word_src.fill_words(window.data(), window.size());
        const auto b = fast.test_packed(window.data(), window.size());
        ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
        EXPECT_EQ(a.software.all_pass, b.software.all_pass);
        for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
            EXPECT_EQ(a.software.verdicts[i].pass,
                      b.software.verdicts[i].pass);
            EXPECT_EQ(a.software.verdicts[i].statistic,
                      b.software.verdicts[i].statistic)
                << a.software.verdicts[i].name << " window " << w;
        }
        EXPECT_EQ(a.sw_cycles, b.sw_cycles);
    }
}

TEST(word_path, monitor_sequence_lanes_agree)
{
    const hw::block_config cfg = paper_design(7, tier::medium);
    const bit_sequence seq = random_sequence(fixture_seed(13), cfg.n());
    core::monitor oracle(cfg, 0.01);
    core::monitor fast(cfg, 0.01);
    const auto a = oracle.test_sequence(seq);
    const std::vector<std::uint64_t> words = seq.to_words();
    const auto b = fast.test_packed(words.data(), words.size());
    EXPECT_EQ(a.software.all_pass, b.software.all_pass);
    ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        EXPECT_EQ(a.software.verdicts[i].statistic,
                  b.software.verdicts[i].statistic);
    }
}

TEST(word_path, monitor_rejects_wrong_length_with_clear_error)
{
    core::monitor mon(paper_design(7, tier::light), 0.01);
    try {
        mon.test_sequence(bit_sequence(100, false));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("128"), std::string::npos)
            << "message should name the expected length: " << what;
        EXPECT_NE(what.find("100"), std::string::npos)
            << "message should name the actual length: " << what;
    }
    // Too long is rejected up front as well, not mid-stream.
    EXPECT_THROW(mon.test_sequence(bit_sequence(256, false)),
                 std::invalid_argument);
    const std::vector<std::uint64_t> words(3);
    EXPECT_THROW(mon.test_packed(words.data(), words.size()),
                 std::invalid_argument);
}

} // namespace
