// The offline battery's word kernels against byte-per-bit oracles.
//
// bit_sequence stores packed LSB-first words, and the battery's tests
// count their statistics from those words: block and range popcounts,
// transition counts, the SWAR cusum walk, per-block longest runs on words,
// 32-bit matrix rows cut from word halves, word-parallel template match
// masks and one cyclic pass over the largest serial / approximate-entropy
// patterns.  Each oracle_* below is the byte-per-bit routine the test ran
// before (one operator[] per bit, the % per bit of the cyclic window, the
// Gauss-Jordan elimination on a vector copy); every count the word kernel
// forms must equal the oracle's at every length from 1 to 600 and at the
// word-boundary lengths, on random and structured inputs, under every
// bits::kernel_variant.  The bit_sequence storage itself (slice,
// append_words, set, equality) is pinned here against per-bit reads too.
#include "base/bits.hpp"
#include "nist/extended_tests.hpp"
#include "nist/gf2.hpp"
#include "nist/tests.hpp"
#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace otf;
using namespace otf::nist;

// ---------------------------------------------------------------- oracles --

std::vector<std::uint64_t> oracle_block_ones(const bit_sequence& seq,
                                             unsigned block_length)
{
    std::vector<std::uint64_t> ones;
    for (std::size_t b = 0; b < seq.size() / block_length; ++b) {
        std::uint64_t count = 0;
        for (std::size_t i = 0; i < block_length; ++i) {
            count += seq[b * block_length + i] ? 1u : 0u;
        }
        ones.push_back(count);
    }
    return ones;
}

std::uint64_t oracle_runs(const bit_sequence& seq)
{
    std::uint64_t runs = 1;
    for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i] != seq[i - 1]) {
            ++runs;
        }
    }
    return runs;
}

std::vector<std::uint64_t> oracle_longest_run_nu(const bit_sequence& seq,
                                                 unsigned block_length,
                                                 unsigned v_lo, unsigned v_hi)
{
    std::vector<std::uint64_t> nu(v_hi - v_lo + 1, 0);
    for (std::size_t b = 0; b < seq.size() / block_length; ++b) {
        unsigned longest = 0;
        unsigned current = 0;
        for (std::size_t i = 0; i < block_length; ++i) {
            if (seq[b * block_length + i]) {
                ++current;
                longest = std::max(longest, current);
            } else {
                current = 0;
            }
        }
        const unsigned category = longest <= v_lo
            ? 0
            : (longest >= v_hi ? v_hi - v_lo : longest - v_lo);
        ++nu[category];
    }
    return nu;
}

/// Gauss-Jordan elimination on a copy of the rows (column j = bit j).
unsigned oracle_gf2_rank(std::vector<std::uint64_t> rows, unsigned cols)
{
    unsigned rank = 0;
    for (unsigned col = 0; col < cols && rank < rows.size(); ++col) {
        const std::uint64_t pivot_mask = std::uint64_t{1} << col;
        std::size_t pivot = rows.size();
        for (std::size_t r = rank; r < rows.size(); ++r) {
            if (rows[r] & pivot_mask) {
                pivot = r;
                break;
            }
        }
        if (pivot == rows.size()) {
            continue;
        }
        std::swap(rows[rank], rows[pivot]);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            if (r != rank && (rows[r] & pivot_mask)) {
                rows[r] ^= rows[rank];
            }
        }
        ++rank;
    }
    return rank;
}

struct rank_counts {
    std::uint64_t full = 0;
    std::uint64_t one_less = 0;
    std::uint64_t remaining = 0;
};

rank_counts oracle_matrix_rank(const bit_sequence& seq, unsigned rows,
                               unsigned cols)
{
    rank_counts counts;
    const std::size_t bits_per_matrix = std::size_t{rows} * cols;
    const unsigned full = std::min(rows, cols);
    std::vector<std::uint64_t> matrix(rows);
    for (std::size_t m = 0; m < seq.size() / bits_per_matrix; ++m) {
        for (unsigned row = 0; row < rows; ++row) {
            std::uint64_t bits = 0;
            for (unsigned col = 0; col < cols; ++col) {
                if (seq[m * bits_per_matrix + std::size_t{row} * cols + col]) {
                    bits |= std::uint64_t{1} << col;
                }
            }
            matrix[row] = bits;
        }
        const unsigned rank = oracle_gf2_rank(matrix, cols);
        if (rank == full) {
            ++counts.full;
        } else if (rank + 1 == full) {
            ++counts.one_less;
        } else {
            ++counts.remaining;
        }
    }
    return counts;
}

bool oracle_match_at(const bit_sequence& seq, std::size_t pos,
                     std::uint32_t templ, unsigned m)
{
    for (unsigned j = 0; j < m; ++j) {
        const bool want = ((templ >> (m - 1 - j)) & 1u) != 0;
        if (seq[pos + j] != want) {
            return false;
        }
    }
    return true;
}

std::vector<std::uint64_t> oracle_non_overlapping_w(const bit_sequence& seq,
                                                    std::uint32_t templ,
                                                    unsigned m,
                                                    unsigned block_count)
{
    const std::size_t block_length = seq.size() / block_count;
    std::vector<std::uint64_t> w;
    for (unsigned b = 0; b < block_count; ++b) {
        const std::size_t base = std::size_t{b} * block_length;
        std::uint64_t hits = 0;
        std::size_t i = 0;
        while (i + m <= block_length) {
            if (oracle_match_at(seq, base + i, templ, m)) {
                ++hits;
                i += m;
            } else {
                ++i;
            }
        }
        w.push_back(hits);
    }
    return w;
}

std::vector<std::uint64_t> oracle_overlapping_nu(const bit_sequence& seq,
                                                 std::uint32_t templ,
                                                 unsigned m,
                                                 unsigned block_length,
                                                 unsigned max_count)
{
    std::vector<std::uint64_t> nu(max_count + 1, 0);
    for (std::size_t b = 0; b < seq.size() / block_length; ++b) {
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i + m <= block_length; ++i) {
            hits += oracle_match_at(seq, b * block_length + i, templ, m)
                ? 1
                : 0;
        }
        ++nu[hits >= max_count ? max_count : hits];
    }
    return nu;
}

/// MSB-first m-bit patterns at every start, the sequence read cyclically
/// with a % per bit.
std::vector<std::uint64_t> oracle_cyclic_counts(const bit_sequence& seq,
                                                unsigned m)
{
    std::vector<std::uint64_t> counts(std::size_t{1} << m, 0);
    for (std::size_t start = 0; start < seq.size(); ++start) {
        std::uint32_t v = 0;
        for (unsigned j = 0; j < m; ++j) {
            v = (v << 1) | (seq[(start + j) % seq.size()] ? 1u : 0u);
        }
        ++counts[v];
    }
    return counts;
}

struct walk {
    std::int64_t s_max = 0;
    std::int64_t s_min = 0;
    std::int64_t s_final = 0;
};

walk oracle_cusum(const bit_sequence& seq)
{
    walk w;
    std::int64_t s = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        w.s_max = std::max(w.s_max, s);
        w.s_min = std::min(w.s_min, s);
    }
    w.s_final = s;
    return w;
}

/// Maurer's statistic with each L-bit block read MSB-first one bit at a
/// time.
double oracle_universal_fn(const bit_sequence& seq, unsigned block_length,
                           std::uint64_t init_blocks)
{
    const std::uint64_t total = seq.size() / block_length;
    std::vector<std::uint64_t> last_seen(std::size_t{1} << block_length, 0);
    const auto block_value = [&](std::uint64_t index) {
        std::uint32_t v = 0;
        for (unsigned j = 0; j < block_length; ++j) {
            v = (v << 1) | (seq[index * block_length + j] ? 1u : 0u);
        }
        return v;
    };
    for (std::uint64_t i = 1; i <= init_blocks; ++i) {
        last_seen[block_value(i - 1)] = i;
    }
    double sum = 0.0;
    for (std::uint64_t i = init_blocks + 1; i <= total; ++i) {
        const std::uint32_t pattern = block_value(i - 1);
        sum += std::log2(static_cast<double>(i - last_seen[pattern]));
        last_seen[pattern] = i;
    }
    return sum / static_cast<double>(total - init_blocks);
}

/// Zero-to-zero cycles of the +/-1 walk and the visits to states -9..9
/// (the final partial walk closes one more cycle).
struct excursion_counts {
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> visits = std::vector<std::uint64_t>(18, 0);
};

excursion_counts oracle_excursions(const bit_sequence& seq)
{
    excursion_counts counts;
    std::int64_t s = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        if (s == 0) {
            ++counts.cycles;
        } else if (s >= -9 && s <= 9) {
            ++counts.visits[static_cast<std::size_t>(s < 0 ? s + 9 : s + 8)];
        }
    }
    counts.cycles += s != 0 ? 1 : 0;
    return counts;
}

// ----------------------------------------------------------------- inputs --

bit_sequence random_bits(std::size_t n, std::uint64_t seed)
{
    trng::ideal_source src(seed);
    return src.generate(n);
}

/// Long runs of ones and zeros (geometric-ish lengths up to 150), so runs
/// straddle word and block boundaries and the run categories all fill.
bit_sequence bursty_bits(std::size_t n, std::uint64_t seed)
{
    trng::ideal_source src(seed);
    bit_sequence seq;
    bool value = true;
    while (seq.size() < n) {
        const std::size_t len = 1 + src.next_bit() * 3 + src.next_bit() * 12
            + src.next_bit() * 60 + src.next_bit() * 74;
        for (std::size_t i = 0; i < len && seq.size() < n; ++i) {
            seq.push_back(value);
        }
        value = !value;
    }
    return seq;
}

/// A sequence with many template hits: the template's bits, then a few
/// random bits, repeated.
bit_sequence template_rich_bits(std::size_t n, std::uint32_t templ,
                                unsigned m, std::uint64_t seed)
{
    trng::ideal_source src(seed);
    bit_sequence seq;
    while (seq.size() < n) {
        for (unsigned j = 0; j < m && seq.size() < n; ++j) {
            seq.push_back(((templ >> (m - 1 - j)) & 1u) != 0);
        }
        const unsigned gap = src.next_bit() * 2 + src.next_bit();
        for (unsigned j = 0; j < gap && seq.size() < n; ++j) {
            seq.push_back(src.next_bit());
        }
    }
    return seq;
}

struct named_sequence {
    std::string name;
    bit_sequence seq;
};

std::vector<named_sequence> inputs_of_length(std::size_t n)
{
    bit_sequence alternating;
    for (std::size_t i = 0; i < n; ++i) {
        alternating.push_back(i % 2 == 0);
    }
    return {
        {"random", random_bits(n, 9000 + n)},
        {"bursty", bursty_bits(n, 9100 + n)},
        {"zeros", bit_sequence(n, false)},
        {"ones", bit_sequence(n, true)},
        {"alternating", alternating},
        {"template 000000001", template_rich_bits(n, 0b000000001u, 9, n)},
        {"template 110", template_rich_bits(n, 0b110u, 3, n)},
    };
}

constexpr std::size_t max_length = 600;

const std::vector<bits::kernel_variant>& variants()
{
    static const std::vector<bits::kernel_variant> all = {
        bits::kernel_variant::reference, bits::kernel_variant::portable,
        bits::kernel_variant::simd};
    return all;
}

/// Restores the default kernel variant however the test exits.
struct variant_guard {
    ~variant_guard()
    {
        bits::set_kernel_variant(bits::kernel_variant::simd);
    }
};

// ---------------------------------------------------------- bit_sequence --

TEST(bit_sequence_words, packed_layout_and_tail_stay_zero)
{
    for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        for (const bool value : {false, true}) {
            const bit_sequence seq(n, value);
            ASSERT_EQ(seq.words().size(), (n + 63) / 64);
            EXPECT_EQ(seq.count_ones(), value ? n : 0);
            if (n % 64 != 0) {
                EXPECT_EQ(seq.words().back() >> (n % 64), 0u) << n;
            }
        }
    }
    bit_sequence seq = random_bits(200, 1);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i], ((seq.words()[i / 64] >> (i % 64)) & 1u) != 0);
    }
    seq.set(130, !seq[130]);
    const bit_sequence copy = seq;
    seq.set(130, !seq[130]);
    EXPECT_NE(seq, copy);
    seq.set(130, !seq[130]);
    EXPECT_EQ(seq, copy);
    EXPECT_THROW(seq.set(200, true), std::out_of_range);
    EXPECT_THROW((void)seq.at(200), std::out_of_range);
    EXPECT_EQ(bit_sequence::from_string(seq.to_string()), seq);
}

TEST(bit_sequence_words, slice_matches_per_bit_reads_at_every_offset)
{
    const bit_sequence seq = random_bits(300, 2);
    for (std::size_t first = 0; first <= 130; ++first) {
        for (const std::size_t length :
             {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 170u}) {
            const bit_sequence part = seq.slice(first, length);
            ASSERT_EQ(part.size(), length);
            bit_sequence want;
            for (std::size_t i = 0; i < length; ++i) {
                want.push_back(seq[first + i]);
            }
            ASSERT_EQ(part, want) << first << "+" << length;
        }
    }
    EXPECT_THROW((void)seq.slice(250, 51), std::out_of_range);
    EXPECT_THROW((void)seq.slice(301, 0), std::out_of_range);
    EXPECT_NO_THROW((void)seq.slice(300, 0));
}

TEST(bit_sequence_words, append_words_at_aligned_and_unaligned_ends)
{
    const bit_sequence source = random_bits(256, 3);
    const std::vector<std::uint64_t> words = source.to_words();
    // Garbage past nbits in the last source word must not leak in.
    for (const std::size_t prefix : {0u, 1u, 37u, 63u, 64u, 65u, 128u}) {
        for (const std::size_t nbits : {0u, 1u, 63u, 64u, 65u, 200u, 256u}) {
            bit_sequence seq = random_bits(prefix, 4);
            bit_sequence want = seq;
            seq.append_words(words, nbits);
            for (std::size_t i = 0; i < nbits; ++i) {
                want.push_back(source[i]);
            }
            ASSERT_EQ(seq, want) << prefix << "+" << nbits;
        }
    }
    bit_sequence seq;
    EXPECT_THROW(seq.append_words(words, 257), std::out_of_range);
    EXPECT_EQ(bit_sequence::from_words(words, 100), source.slice(0, 100));
    EXPECT_EQ(bit_sequence::from_words(words, 256).to_words(), words);
}

// --------------------------------------------------------- count kernels --

TEST(word_kernels, frequency_block_frequency_and_runs_match_oracles)
{
    variant_guard guard;
    for (const bits::kernel_variant v : variants()) {
        bits::set_kernel_variant(v);
        for (std::size_t n = 2; n <= max_length; ++n) {
            for (const named_sequence& in : inputs_of_length(n)) {
                SCOPED_TRACE(in.name + " n=" + std::to_string(n));
                const bit_sequence& seq = in.seq;
                EXPECT_EQ(frequency_test(seq).s_n,
                          2 * static_cast<std::int64_t>(
                              oracle_block_ones(seq, n)[0])
                              - static_cast<std::int64_t>(n));
                EXPECT_EQ(runs_test(seq).v_n, oracle_runs(seq));
                for (const unsigned m : {1u, 7u, 20u, 64u, 100u}) {
                    if (n >= m) {
                        EXPECT_EQ(block_frequency_test(seq, m).ones,
                                  oracle_block_ones(seq, m))
                            << "M=" << m;
                    }
                }
            }
        }
    }
}

TEST(word_kernels, count_ones_matches_per_bit_count)
{
    for (std::size_t n = 0; n <= 200; ++n) {
        const bit_sequence seq = random_bits(n, 5 + n);
        std::size_t ones = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ones += seq[i] ? 1 : 0;
        }
        EXPECT_EQ(seq.count_ones(), ones) << n;
    }
}

TEST(word_kernels, longest_run_matches_oracle)
{
    for (std::size_t n = 1; n <= max_length; ++n) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            for (const unsigned m : {8u, 13u, 64u, 128u, 200u}) {
                if (n < m) {
                    continue;
                }
                const longest_run_result r = longest_run_test(in.seq, m);
                EXPECT_EQ(r.nu,
                          oracle_longest_run_nu(in.seq, m, r.v_lo, r.v_hi))
                    << "M=" << m;
            }
            if (n >= 100) {
                // Tight categories: every run length gets its own class.
                EXPECT_EQ(longest_run_test(in.seq, 100, 0, 101).nu,
                          oracle_longest_run_nu(in.seq, 100, 0, 101));
            }
        }
    }
}

TEST(word_kernels, cusum_walk_matches_oracle)
{
    variant_guard guard;
    for (const bits::kernel_variant v : variants()) {
        bits::set_kernel_variant(v);
        for (std::size_t n = 1; n <= max_length; ++n) {
            for (const named_sequence& in : inputs_of_length(n)) {
                SCOPED_TRACE(in.name + " n=" + std::to_string(n));
                const cumulative_sums_result r = cumulative_sums_test(in.seq);
                const walk w = oracle_cusum(in.seq);
                EXPECT_EQ(r.s_max, w.s_max);
                EXPECT_EQ(r.s_min, w.s_min);
                EXPECT_EQ(r.s_final, w.s_final);
            }
        }
    }
}

void expect_rank_counts(const bit_sequence& seq, unsigned rows,
                        unsigned cols)
{
    if (seq.size() < std::size_t{rows} * cols) {
        return;
    }
    const matrix_rank_result r = matrix_rank_test(seq, rows, cols);
    const rank_counts want = oracle_matrix_rank(seq, rows, cols);
    EXPECT_EQ(r.full_rank, want.full) << rows << "x" << cols;
    EXPECT_EQ(r.one_less, want.one_less) << rows << "x" << cols;
    EXPECT_EQ(r.remaining, want.remaining) << rows << "x" << cols;
}

TEST(word_kernels, matrix_rank_matches_oracle)
{
    // 32 x 32 (word-half rows) at lengths around whole matrices, 33 x 33
    // and 64 x 64, then small square-ish shapes whose rows straddle words
    // at every offset.  (Shapes far from square have a third rank
    // category too improbable for the chi-squared in double precision.)
    for (const std::size_t n :
         {1024u, 1025u, 2047u, 2048u, 4096u, 4159u, 32768u}) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            expect_rank_counts(in.seq, 32, 32);
            expect_rank_counts(in.seq, 33, 33);
            expect_rank_counts(in.seq, 64, 64);
        }
    }
    for (std::size_t n = 25; n <= max_length; n += 3) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            expect_rank_counts(in.seq, 5, 5);
            expect_rank_counts(in.seq, 7, 7);
            expect_rank_counts(in.seq, 12, 11);
            expect_rank_counts(in.seq, 13, 13);
        }
    }
}

TEST(word_kernels, gf2_rank_matches_gauss_jordan_oracle)
{
    trng::xoshiro256ss src(77);
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const unsigned rows = 1 + trial % 40;
        const unsigned cols = 1 + (trial * 7) % 64;
        std::vector<std::uint64_t> matrix(rows);
        for (std::uint64_t& row : matrix) {
            // Sparse rows now and then, so low ranks occur.
            row = src.next_bits64() & bits::low_mask(cols);
            if (trial % 3 == 0) {
                row &= src.next_bits64() & src.next_bits64();
            }
        }
        const unsigned want = oracle_gf2_rank(matrix, cols);
        EXPECT_EQ(gf2_rank(matrix, cols), want) << rows << "x" << cols;
    }
}

TEST(word_kernels, templates_match_oracles)
{
    // Asymmetric templates: reading the template LSB-first instead of
    // MSB-first changes their counts.
    const std::vector<std::pair<std::uint32_t, unsigned>> templates = {
        {0b000000001u, 9}, {0b111111111u, 9}, {0b110u, 3}, {0b1u, 1},
        {0b10u, 2},        {0b0010111u, 7},   {0x5u, 31}};
    for (std::size_t n = 1; n <= max_length; ++n) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            for (const auto& [templ, m] : templates) {
                for (const unsigned blocks : {1u, 3u, 8u}) {
                    if (n / blocks >= m) {
                        EXPECT_EQ(non_overlapping_template_test(in.seq, templ,
                                                                m, blocks)
                                      .w,
                                  oracle_non_overlapping_w(in.seq, templ, m,
                                                           blocks))
                            << "templ=" << templ << " m=" << m
                            << " N=" << blocks;
                    }
                }
                for (const unsigned block_length : {m, 10u, 64u, 97u, 128u}) {
                    if (block_length >= m && n >= block_length) {
                        EXPECT_EQ(overlapping_template_test(in.seq, templ, m,
                                                            block_length, 5)
                                      .nu,
                                  oracle_overlapping_nu(in.seq, templ, m,
                                                        block_length, 5))
                            << "templ=" << templ << " m=" << m
                            << " M=" << block_length;
                    }
                }
            }
        }
    }
}

TEST(word_kernels, cyclic_pattern_counts_match_oracle_with_wrap)
{
    // Lengths below the pattern length plus one exercise windows that wrap
    // more than once around the sequence's end.
    for (std::size_t n = 1; n <= max_length; ++n) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            for (const unsigned m : {1u, 2u, 3u, 4u, 5u, 9u, 13u}) {
                if (n < m) {
                    EXPECT_THROW((void)cyclic_pattern_counts(in.seq, m),
                                 std::invalid_argument);
                    continue;
                }
                EXPECT_EQ(cyclic_pattern_counts(in.seq, m),
                          oracle_cyclic_counts(in.seq, m))
                    << "m=" << m;
            }
        }
    }
}

TEST(word_kernels, serial_and_approximate_entropy_counts_match_oracle)
{
    for (std::size_t n = 2; n <= max_length; ++n) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            for (const unsigned m : {2u, 3u, 4u, 5u}) {
                if (n < m) {
                    continue;
                }
                const serial_result s = serial_test(in.seq, m);
                EXPECT_EQ(s.nu_m, oracle_cyclic_counts(in.seq, m));
                EXPECT_EQ(s.nu_m1, oracle_cyclic_counts(in.seq, m - 1));
                if (m > 2) {
                    EXPECT_EQ(s.nu_m2, oracle_cyclic_counts(in.seq, m - 2));
                } else {
                    EXPECT_EQ(s.nu_m2, std::vector<std::uint64_t>{n});
                }
            }
            for (const unsigned m : {1u, 2u, 3u, 4u}) {
                if (n < m + 1) {
                    continue;
                }
                const approximate_entropy_result a =
                    approximate_entropy_test(in.seq, m);
                EXPECT_EQ(a.nu_m, oracle_cyclic_counts(in.seq, m));
                EXPECT_EQ(a.nu_m1, oracle_cyclic_counts(in.seq, m + 1));
            }
        }
    }
}

TEST(word_kernels, universal_and_excursion_walks_match_oracles)
{
    for (std::size_t n = 1; n <= max_length; ++n) {
        for (const named_sequence& in : inputs_of_length(n)) {
            SCOPED_TRACE(in.name + " n=" + std::to_string(n));
            const random_excursions_variant_result r =
                random_excursions_variant_test(in.seq);
            const excursion_counts want = oracle_excursions(in.seq);
            EXPECT_EQ(r.cycles, want.cycles);
            EXPECT_EQ(r.visits, want.visits);
            for (const unsigned l : {1u, 2u, 5u, 7u}) {
                const std::uint64_t init = std::uint64_t{1} << l;
                if (n / l > init) {
                    EXPECT_EQ(universal_test(in.seq, l, init).fn,
                              oracle_universal_fn(in.seq, l, init))
                        << "L=" << l;
                }
            }
        }
    }
}

TEST(word_kernels, counts_of_unaligned_slices_match_oracles)
{
    // The same statistics on sequences cut at every bit offset of a word:
    // the kernels see the slice's own words, never its parent's.
    const bit_sequence parent = bursty_bits(1400, 11);
    for (std::size_t first = 0; first < 64; ++first) {
        const bit_sequence seq = parent.slice(first, 1100 + first % 5);
        SCOPED_TRACE("first=" + std::to_string(first));
        EXPECT_EQ(runs_test(seq).v_n, oracle_runs(seq));
        EXPECT_EQ(longest_run_test(seq, 128, 4, 9).nu,
                  oracle_longest_run_nu(seq, 128, 4, 9));
        EXPECT_EQ(cyclic_pattern_counts(seq, 4), oracle_cyclic_counts(seq, 4));
        EXPECT_EQ(overlapping_template_test(seq, 9, 97, 5).nu,
                  oracle_overlapping_nu(seq, 0x1ffu, 9, 97, 5));
        const matrix_rank_result r = matrix_rank_test(seq, 32, 32);
        const rank_counts want = oracle_matrix_rank(seq, 32, 32);
        EXPECT_EQ(r.full_rank, want.full);
        EXPECT_EQ(r.one_less, want.one_less);
        const walk w = oracle_cusum(seq);
        EXPECT_EQ(cumulative_sums_test(seq).s_max, w.s_max);
        EXPECT_EQ(cumulative_sums_test(seq).s_min, w.s_min);
    }
}

} // namespace
