// Golden output of the offline SP 800-22 battery.
//
// Every battery_entry of the full registry -- test number, name, P-value
// as its IEEE-754 bit pattern, applicability and verdict -- on a fixed set
// of inputs: ideal_source streams at lengths that are not powers of two
// (384, 1000, 4113), at a native window (65536) and at the supervisor's
// largest evidence (524288), a word-unaligned slice, and biased, stuck-at
// and periodic streams that take the not-applicable and failing branches.
//
// The offline confirmation's verdicts and the WAL bytes that carry them
// depend on these values, so how the tests form their counts may change
// but what they output may not.  The table (tests/data/) was recorded from
// the byte-per-bit implementation that preceded the packed-word kernels.
#include "nist/battery.hpp"
#include "support/fixed_seed.hpp"
#include "trng/sources.hpp"

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace {

using namespace otf;

constexpr double alpha = 0.01;

struct golden_entry {
    unsigned test_number;
    const char* name;
    std::uint64_t p_bits;
    bool applicable;
    bool pass;
};

struct golden_input {
    const char* label;
    std::vector<golden_entry> entries;
};

const std::vector<golden_input>& golden_table()
{
    static const std::vector<golden_input> table = {
#include "data/nist_battery_golden.inc"
    };
    return table;
}

bit_sequence ideal(std::size_t n, std::uint64_t index)
{
    trng::ideal_source src(test::fixture_seed(index));
    return src.generate(n);
}

bit_sequence biased(std::size_t n, double p_one)
{
    trng::biased_source src(test::fixture_seed(20), p_one);
    return src.generate(n);
}

bit_sequence periodic(std::size_t n, const char* pattern)
{
    trng::periodic_source src(bit_sequence::from_string(pattern));
    return src.generate(n);
}

struct labelled_input {
    std::string label;
    bit_sequence seq;
};

/// The inputs, in table order.
std::vector<labelled_input> golden_inputs()
{
    std::vector<labelled_input> inputs;
    for (const std::uint64_t index : {0u, 1u}) {
        for (const std::size_t n : {384u, 1000u, 4113u, 65536u, 524288u}) {
            inputs.push_back({"ideal seed " + std::to_string(index) + " n="
                                  + std::to_string(n),
                              ideal(n, index)});
        }
    }
    inputs.push_back(
        {"ideal slice 37+65536", ideal(65536 + 100, 2).slice(37, 65536)});
    inputs.push_back({"biased 0.52 n=65536", biased(65536, 0.52)});
    inputs.push_back({"biased 0.75 n=4113", biased(4113, 0.75)});
    inputs.push_back({"stuck-at-0 n=65536", bit_sequence(65536, false)});
    inputs.push_back({"stuck-at-1 n=4113", bit_sequence(4113, true)});
    inputs.push_back(
        {"periodic 0110100 n=65536", periodic(65536, "0110100")});
    inputs.push_back({"periodic 1 n=20000", periodic(20000, "1111111110")});
    return inputs;
}

TEST(nist_battery_golden, every_entry_is_pinned_bitwise)
{
    const std::vector<labelled_input> inputs = golden_inputs();
    const std::vector<golden_input>& table = golden_table();
    ASSERT_EQ(inputs.size(), table.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE(inputs[i].label);
        ASSERT_EQ(inputs[i].label, table[i].label);
        const nist::battery_report report =
            nist::run_battery(inputs[i].seq, alpha);
        const std::vector<golden_entry>& want = table[i].entries;
        ASSERT_EQ(report.entries.size(), want.size());
        unsigned passed = 0;
        unsigned failed = 0;
        unsigned skipped = 0;
        for (std::size_t e = 0; e < want.size(); ++e) {
            const nist::battery_entry& got = report.entries[e];
            SCOPED_TRACE(want[e].name);
            EXPECT_EQ(got.test_number, want[e].test_number);
            EXPECT_EQ(got.name, want[e].name);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_value),
                      want[e].p_bits)
                << "P = " << got.p_value;
            EXPECT_EQ(got.applicable, want[e].applicable);
            EXPECT_EQ(got.pass, want[e].pass);
            skipped += want[e].applicable ? 0 : 1;
            passed += want[e].applicable && want[e].pass ? 1 : 0;
            failed += want[e].applicable && !want[e].pass ? 1 : 0;
        }
        EXPECT_EQ(report.passed, passed);
        EXPECT_EQ(report.failed, failed);
        EXPECT_EQ(report.skipped, skipped);
    }
}

/// The table must take both branches of every verdict somewhere, or it
/// pins less than it claims.
TEST(nist_battery_golden, table_covers_pass_fail_and_skip)
{
    unsigned passed = 0;
    unsigned failed = 0;
    unsigned skipped = 0;
    for (const golden_input& input : golden_table()) {
        for (const golden_entry& e : input.entries) {
            skipped += e.applicable ? 0 : 1;
            passed += e.applicable && e.pass ? 1 : 0;
            failed += e.applicable && !e.pass ? 1 : 0;
        }
    }
    EXPECT_GT(passed, 0u);
    EXPECT_GT(failed, 0u);
    EXPECT_GT(skipped, 0u);
}

} // namespace
