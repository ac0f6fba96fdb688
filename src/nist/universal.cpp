#include "nist/extended_tests.hpp"
#include "nist/special_functions.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

namespace otf::nist {

namespace {

// SP 800-22 table 2-9: expected value and variance of the per-block
// statistic for L = 1..16.
struct universal_constants {
    double expected;
    double variance;
};

const universal_constants constants[17] = {
    {0.0, 0.0},          // L = 0 unused
    {0.7326495, 0.690},  // 1
    {1.5374383, 1.338},  // 2
    {2.4016068, 1.901},  // 3
    {3.3112247, 2.358},  // 4
    {4.2534266, 2.705},  // 5
    {5.2177052, 2.954},  // 6
    {6.1962507, 3.125},  // 7
    {7.1836656, 3.238},  // 8
    {8.1764248, 3.311},  // 9
    {9.1723243, 3.356},  // 10
    {10.170032, 3.384},  // 11
    {11.168765, 3.401},  // 12
    {12.168070, 3.410},  // 13
    {13.167693, 3.416},  // 14
    {14.167488, 3.419},  // 15
    {15.167379, 3.421},  // 16
};

// NIST length ladder: smallest n for which block length L is recommended.
unsigned recommended_block_length(std::size_t n)
{
    struct rung {
        std::size_t min_n;
        unsigned length;
    };
    static const rung ladder[] = {
        {387840, 6},      {904960, 7},      {2068480, 8},
        {4654080, 9},     {10342400, 10},   {22753280, 11},
        {49643520, 12},   {107560960, 13},  {231669760, 14},
        {496435200, 15},  {1059061760, 16},
    };
    unsigned best = 5; // floor for short research sequences
    for (const rung& r : ladder) {
        if (n >= r.min_n) {
            best = r.length;
        }
    }
    return best;
}

} // namespace

universal_result universal_test(const bit_sequence& seq)
{
    const unsigned length = recommended_block_length(seq.size());
    const std::uint64_t q = 10ull << length; // Q = 10 * 2^L
    return universal_test(seq, length, q);
}

universal_result universal_test(const bit_sequence& seq,
                                unsigned block_length,
                                std::uint64_t init_blocks)
{
    if (block_length < 1 || block_length > 16) {
        throw std::invalid_argument("universal_test: L must be in [1, 16]");
    }
    const std::uint64_t total_blocks = seq.size() / block_length;
    if (total_blocks <= init_blocks) {
        throw std::invalid_argument(
            "universal_test: sequence too short for Q init blocks");
    }

    universal_result r;
    r.block_length = block_length;
    r.init_blocks = init_blocks;
    r.test_blocks = total_blocks - init_blocks;

    // Last-occurrence table over all 2^L patterns -- the storage that
    // makes this test unsuitable for the on-chip hardware (Table I).
    std::vector<std::uint64_t> last_seen(std::size_t{1} << block_length, 0);
    // Block i as one 64-bit read of its L bits, LSB-first.  The table only
    // needs each pattern to have its own slot, so the bit order of the
    // index (SP 800-22 reads blocks MSB-first) does not change the
    // distances it yields.
    const std::span<const std::uint64_t> words = seq.words();
    const std::uint64_t mask = bits::low_mask(block_length);
    const auto block_value = [&](std::uint64_t index) {
        const std::size_t base =
            static_cast<std::size_t>(index) * block_length;
        return static_cast<std::uint32_t>(bits::read64(words, base) & mask);
    };

    for (std::uint64_t i = 1; i <= init_blocks; ++i) {
        last_seen[block_value(i - 1)] = i;
    }
    double sum = 0.0;
    for (std::uint64_t i = init_blocks + 1; i <= total_blocks; ++i) {
        const std::uint32_t pattern = block_value(i - 1);
        sum += std::log2(static_cast<double>(i - last_seen[pattern]));
        last_seen[pattern] = i;
    }
    r.fn = sum / static_cast<double>(r.test_blocks);

    const universal_constants& c = constants[block_length];
    r.expected = c.expected;
    // Finite-K correction factor (SP 800-22 section 2.9.4 / Coron).
    const double k = static_cast<double>(r.test_blocks);
    const double correction = 0.7 - 0.8 / block_length
        + (4.0 + 32.0 / block_length)
            * std::pow(k, -3.0 / block_length) / 15.0;
    r.sigma = correction * std::sqrt(c.variance / k);
    r.p_value = erfc(std::fabs(r.fn - r.expected)
                     / (std::sqrt(2.0) * r.sigma));
    return r;
}

} // namespace otf::nist
