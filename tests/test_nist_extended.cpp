// Tests of the six extended NIST tests (the paper's future-work coverage
// of the remaining suite): GF(2) rank against exhaustive enumeration,
// FFT (real-input radix-2 and Bluestein) against a direct DFT at every
// length up to 300, every power of two up to 2^13 and odd lengths up to
// 4095, the Bluestein plan cache against cold calls (and from several
// threads at once), the word-packed Berlekamp-Massey against a
// byte-per-bit oracle and known LFSRs, the universal statistic against the
// SP 800-22 worked example,
// excursion probabilities against their closed forms, and
// defect-detection properties for each test.
#include "base/json.hpp"
#include "nist/battery.hpp"
#include "nist/extended_tests.hpp"
#include "nist/fft.hpp"
#include "nist/gf2.hpp"
#include "nist/special_functions.hpp"
#include "trng/sources.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace otf;
using namespace otf::nist;

// ------------------------------------------------------------------ GF(2) --
TEST(gf2, rank_of_known_matrices)
{
    // gf2_rank eliminates in place, so each matrix is its own array.
    std::uint64_t identity[] = {0b001, 0b010, 0b100};
    EXPECT_EQ(gf2_rank(identity, 3), 3u);
    std::uint64_t repeated_row[] = {0b011, 0b011, 0b100};
    EXPECT_EQ(gf2_rank(repeated_row, 3), 2u);
    // Row is the XOR of the others.
    std::uint64_t dependent[] = {0b011, 0b101, 0b110};
    EXPECT_EQ(gf2_rank(dependent, 3), 2u);
    std::uint64_t zero[] = {0, 0, 0};
    EXPECT_EQ(gf2_rank(zero, 3), 0u);
}

TEST(gf2, rank_distribution_matches_exhaustive_enumeration)
{
    // All 512 3x3 binary matrices, exact.
    std::vector<unsigned> histogram(4, 0);
    for (unsigned bits = 0; bits < 512; ++bits) {
        std::vector<std::uint64_t> rows = {
            bits & 7u, (bits >> 3) & 7u, (bits >> 6) & 7u};
        ++histogram[gf2_rank(rows, 3)];
    }
    for (unsigned r = 0; r <= 3; ++r) {
        const double expected = gf2_rank_probability(3, 3, r);
        EXPECT_NEAR(static_cast<double>(histogram[r]) / 512.0, expected,
                    1e-12)
            << "rank " << r;
    }
}

TEST(gf2, nist_32x32_category_probabilities)
{
    // SP 800-22 section 3.5 quotes ~0.2888 / 0.5776 / 0.1336.
    EXPECT_NEAR(gf2_rank_probability(32, 32, 32), 0.2888, 5e-4);
    EXPECT_NEAR(gf2_rank_probability(32, 32, 31), 0.5776, 5e-4);
    double below = 0.0;
    for (unsigned r = 0; r <= 30; ++r) {
        below += gf2_rank_probability(32, 32, r);
    }
    EXPECT_NEAR(below, 0.1336, 5e-4);
}

TEST(matrix_rank_test, healthy_source_passes)
{
    trng::ideal_source src(3);
    const auto r = matrix_rank_test(src.generate(65536));
    EXPECT_EQ(r.matrices, 64u);
    EXPECT_EQ(r.full_rank + r.one_less + r.remaining, 64u);
    EXPECT_GT(r.p_value, 1e-4);
}

TEST(matrix_rank_test, rank_deficient_stream_fails)
{
    // A period-32 stream makes every 32x32 matrix have identical rows.
    trng::ideal_source src(4);
    bit_sequence pattern = src.generate(32);
    bit_sequence seq;
    for (unsigned i = 0; i < 65536; ++i) {
        seq.push_back(pattern[i % 32]);
    }
    const auto r = matrix_rank_test(seq);
    EXPECT_EQ(r.full_rank, 0u);
    EXPECT_LT(r.p_value, 1e-12);
}

// -------------------------------------------------------------------- FFT --
/// Direct O(n^2) DFT magnitudes of the first floor(n/2) bins: the oracle for
/// both the radix-2 and the Bluestein path.  The twiddle index j*i is
/// reduced mod n exactly, so each angle is computed from a small integer and
/// the table costs one cos/sin pair per residue.
std::vector<double> direct_dft_magnitudes(const std::vector<double>& x)
{
    const std::size_t n = x.size();
    std::vector<double> cos_table(n);
    std::vector<double> sin_table(n);
    for (std::size_t r = 0; r < n; ++r) {
        const double angle =
            -2.0 * M_PI * static_cast<double>(r) / static_cast<double>(n);
        cos_table[r] = std::cos(angle);
        sin_table[r] = std::sin(angle);
    }
    std::vector<double> magnitudes(n / 2);
    for (std::size_t j = 0; j < n / 2; ++j) {
        double re = 0.0;
        double im = 0.0;
        std::size_t r = 0; // j * i mod n
        for (std::size_t i = 0; i < n; ++i) {
            re += x[i] * cos_table[r];
            im += x[i] * sin_table[r];
            r += j;
            if (r >= n) {
                r -= n;
            }
        }
        magnitudes[j] = std::hypot(re, im);
    }
    return magnitudes;
}

/// Check dft_magnitudes and dft_test against the oracle on random +-1
/// input of length n.
void expect_matches_direct_dft(std::size_t n, std::uint64_t seed)
{
    trng::ideal_source src(seed);
    const bit_sequence bits = src.generate(n);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = bits[i] ? 1.0 : -1.0;
    }
    const std::vector<double> fast = dft_magnitudes(bits);
    const std::vector<double> direct = direct_dft_magnitudes(x);
    ASSERT_EQ(fast.size(), direct.size()) << "n=" << n;
    const double tolerance = 1e-9 * std::sqrt(static_cast<double>(n));
    for (std::size_t j = 0; j < direct.size(); ++j) {
        ASSERT_NEAR(fast[j], direct[j], tolerance)
            << "n=" << n << " bin " << j;
    }
    // The peak count is what the test consumes: exact agreement.
    const double threshold =
        std::sqrt(static_cast<double>(n) * std::log(1.0 / 0.05));
    const auto below =
        std::count_if(direct.begin(), direct.end(),
                      [&](double magnitude) { return magnitude < threshold; });
    EXPECT_EQ(dft_test(bits).n1, static_cast<double>(below)) << "n=" << n;
}

TEST(fft, matches_direct_dft_at_every_small_length)
{
    // Powers of two take the radix-2 path, everything else Bluestein.
    for (std::size_t n = 2; n <= 300; ++n) {
        expect_matches_direct_dft(n, 5 + n);
    }
}

TEST(fft, matches_direct_dft_on_population_evidence_lengths)
{
    // The supervisor's evidence ring holds 1..8 windows of n = 128.
    for (std::size_t k = 1; k <= 8; ++k) {
        expect_matches_direct_dft(128 * k, 1000 + k);
    }
}

TEST(fft, matches_direct_dft_at_odd_and_prime_lengths)
{
    for (const std::size_t n : {1021u, 2047u, 3000u, 4093u, 4095u}) {
        expect_matches_direct_dft(n, 2000 + n);
    }
}

TEST(fft, matches_direct_dft_at_every_power_of_two)
{
    // The real-input path: n/2-point complex FFT plus one split pass.
    for (std::size_t n = 2; n <= 8192; n *= 2) {
        expect_matches_direct_dft(n, 3000 + n);
    }
}

/// dft_magnitudes on a fresh thread, whose Bluestein plan cache is empty.
std::vector<double> cold_dft_magnitudes(const bit_sequence& bits)
{
    std::vector<double> out;
    std::thread([&] { out = dft_magnitudes(bits); }).join();
    return out;
}

TEST(fft, bluestein_plan_cache_is_bit_identical_to_cold_calls)
{
    // Hits, a prime length, more than 8 distinct lengths (so 384 and 640
    // are evicted and rebuilt), one length too large to cache (m = 2^17)
    // and power-of-two lengths (no plan) in between.
    std::vector<std::size_t> lengths = {384, 640, 384, 1021, 384};
    for (std::size_t n = 100; n <= 1200; n += 100) {
        lengths.push_back(n);
    }
    for (const std::size_t n : {384u, 640u, 40000u, 1024u, 640u, 384u}) {
        lengths.push_back(n);
    }
    for (std::size_t i = 0; i < lengths.size(); ++i) {
        trng::ideal_source src(4000 + i);
        const bit_sequence bits = src.generate(lengths[i]);
        EXPECT_TRUE(dft_magnitudes(bits) == cold_dft_magnitudes(bits))
            << "call " << i << " n=" << lengths[i];
    }
}

TEST(fft, threads_with_own_plan_caches_match_single_thread_output)
{
    // Four threads interleave Bluestein and radix-2 lengths, each through
    // its own plan cache; every result must equal the single-thread one.
    const std::vector<std::size_t> lengths = {384, 640, 768, 896, 1021,
                                              1024, 384, 3000, 640, 4096};
    std::vector<bit_sequence> inputs;
    std::vector<std::vector<double>> expected;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
        trng::ideal_source src(5000 + i);
        inputs.push_back(src.generate(lengths[i]));
        expected.push_back(dft_magnitudes(inputs.back()));
    }
    constexpr unsigned threads = 4;
    constexpr unsigned rounds = 3;
    std::vector<std::vector<std::vector<double>>> got(
        threads, std::vector<std::vector<double>>(rounds * lengths.size()));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t r = 0; r < got[t].size(); ++r) {
                // Each thread walks the lengths from its own offset.
                const std::size_t i = (r + 3 * t) % lengths.size();
                got[t][r] = dft_magnitudes(inputs[i]);
            }
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    for (unsigned t = 0; t < threads; ++t) {
        for (std::size_t r = 0; r < got[t].size(); ++r) {
            const std::size_t i = (r + 3 * t) % lengths.size();
            EXPECT_TRUE(got[t][r] == expected[i])
                << "thread " << t << " call " << r << " n=" << lengths[i];
        }
    }
}

TEST(fft, empty_and_single_sample_inputs)
{
    EXPECT_TRUE(dft_magnitudes(bit_sequence{}).empty());
    EXPECT_TRUE(dft_magnitudes(bit_sequence(1, true)).empty());
}

TEST(fft, rejects_non_power_of_two)
{
    std::vector<std::complex<double>> data(12);
    EXPECT_THROW(fft_radix2(data), std::invalid_argument);
}

TEST(dft_test, healthy_source_passes)
{
    trng::ideal_source src(6);
    const auto r = dft_test(src.generate(4096));
    EXPECT_GT(r.p_value, 1e-4);
    EXPECT_NEAR(r.n0, 0.95 * 4096 / 2.0, 1e-9);
}

TEST(dft_test, periodic_source_fails)
{
    trng::periodic_source src(bit_sequence::from_string("1100"));
    const auto r = dft_test(src.generate(4096));
    EXPECT_LT(r.p_value, 1e-9) << "a strong tone must blow the peak count";
}

// -------------------------------------------------------------- universal --
TEST(universal, nist_worked_example_statistic)
{
    // SP 800-22 2.9.4: eps = 01011010011101010111, L = 2, Q = 4, K = 6:
    // fn = 1.1949875.
    const auto r = universal_test(
        bit_sequence::from_string("01011010011101010111"), 2, 4);
    EXPECT_EQ(r.test_blocks, 6u);
    EXPECT_NEAR(r.fn, 1.1949875, 1e-6);
    EXPECT_GT(r.p_value, 0.0);
    EXPECT_LT(r.p_value, 1.0);
}

TEST(universal, healthy_source_passes)
{
    trng::ideal_source src(7);
    // L = 5, Q = 320: needs 10 * 2^5 init blocks plus test blocks.
    const auto r = universal_test(src.generate(200000), 5, 320);
    EXPECT_GT(r.p_value, 1e-4);
    EXPECT_NEAR(r.fn, r.expected, 0.2);
}

TEST(universal, periodic_source_fails)
{
    trng::periodic_source src(bit_sequence::from_string("01100"));
    const auto r = universal_test(src.generate(200000), 5, 320);
    EXPECT_LT(r.p_value, 1e-9)
        << "a periodic source revisits patterns at tiny distances";
}

TEST(universal, rejects_too_short_input)
{
    trng::ideal_source src(8);
    EXPECT_THROW(universal_test(src.generate(100), 5, 320),
                 std::invalid_argument);
}

// ------------------------------------------------------- linear complexity --
/// Byte-per-bit Berlekamp-Massey, the textbook loop: the oracle for the
/// library's word-packed one.
unsigned oracle_berlekamp_massey(const std::vector<std::uint8_t>& bits)
{
    const std::size_t n = bits.size();
    std::vector<std::uint8_t> c(n + 1, 0);
    std::vector<std::uint8_t> b(n + 1, 0);
    std::vector<std::uint8_t> t;
    c[0] = 1;
    b[0] = 1;
    unsigned l = 0;
    std::int64_t m = -1;
    for (std::size_t i = 0; i < n; ++i) {
        // Discrepancy d = s_i + sum_{j=1..L} c_j s_{i-j}  (mod 2).
        std::uint8_t d = bits[i];
        for (unsigned j = 1; j <= l; ++j) {
            d = static_cast<std::uint8_t>(d ^ (c[j] & bits[i - j]));
        }
        if (d == 0) {
            continue;
        }
        t = c;
        const std::size_t shift =
            static_cast<std::size_t>(static_cast<std::int64_t>(i) - m);
        for (std::size_t j = 0; j + shift <= n; ++j) {
            c[j + shift] = static_cast<std::uint8_t>(c[j + shift] ^ b[j]);
        }
        if (2 * l <= i) {
            l = static_cast<unsigned>(i + 1 - l);
            m = static_cast<std::int64_t>(i);
            b = t;
        }
    }
    return l;
}

std::vector<std::uint8_t> random_block(std::size_t n, std::uint64_t seed)
{
    trng::ideal_source src(seed);
    const bit_sequence bits = src.generate(n);
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = bits[i] ? 1 : 0;
    }
    return out;
}

/// n bits of the LFSR s_i = sum_{j=1..d} taps_j s_{i-j} whose feedback
/// polynomial has degree d (taps_d = 1), started from the impulse state
/// 0...01: no shorter LFSR produces d-1 zeros and then a one, so its linear
/// complexity is exactly d at every length n >= d.
std::vector<std::uint8_t> lfsr_impulse_stream(unsigned degree, std::size_t n,
                                              std::uint64_t seed)
{
    std::vector<std::uint8_t> taps = random_block(degree + 1, seed);
    taps[degree] = 1; // taps[j] for j = 1..degree; taps[0] is unused
    std::vector<std::uint8_t> s(n, 0);
    s[degree - 1] = 1;
    for (std::size_t i = degree; i < n; ++i) {
        std::uint8_t next = 0;
        for (unsigned j = 1; j <= degree; ++j) {
            next = static_cast<std::uint8_t>(next ^ (taps[j] & s[i - j]));
        }
        s[i] = next;
    }
    return s;
}

TEST(berlekamp_massey, known_small_cases)
{
    // SP 800-22 2.10.4 example: 1101011110001 has L = 4.
    std::vector<std::uint8_t> bits = {1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0,
                                      1};
    EXPECT_EQ(berlekamp_massey(bits), 4u);
    // All zeros: complexity 0.  Single one at the end: complexity n.
    EXPECT_EQ(berlekamp_massey({0, 0, 0, 0}), 0u);
    EXPECT_EQ(berlekamp_massey({0, 0, 0, 1}), 4u);
    // Alternating sequence: complexity 2.
    EXPECT_EQ(berlekamp_massey({1, 0, 1, 0, 1, 0, 1, 0}), 2u);
}

TEST(berlekamp_massey, lfsr_sequence_has_its_degree)
{
    // x^4 + x + 1, a maximal-length LFSR: complexity 4 at any length.
    std::vector<std::uint8_t> state = {1, 0, 0, 1};
    std::vector<std::uint8_t> stream;
    for (unsigned i = 0; i < 64; ++i) {
        stream.push_back(state[0]);
        const std::uint8_t feedback =
            static_cast<std::uint8_t>(state[0] ^ state[1]);
        state.erase(state.begin());
        state.push_back(feedback);
    }
    EXPECT_EQ(berlekamp_massey(stream), 4u);
}

TEST(berlekamp_massey, matches_byte_oracle_at_every_length)
{
    for (std::size_t n = 4; n <= 600; ++n) {
        std::vector<std::uint8_t> alternating(n);
        for (std::size_t i = 0; i < n; ++i) {
            alternating[i] = static_cast<std::uint8_t>(i % 2);
        }
        const std::pair<const char*, std::vector<std::uint8_t>> blocks[] = {
            {"random", random_block(n, 6000 + n)},
            {"zeros", std::vector<std::uint8_t>(n, 0)},
            {"ones", std::vector<std::uint8_t>(n, 1)},
            {"alternating", alternating},
        };
        for (const auto& [name, block] : blocks) {
            ASSERT_EQ(berlekamp_massey(block), oracle_berlekamp_massey(block))
                << "n=" << n << " " << name;
        }
    }
}

TEST(berlekamp_massey, lfsr_of_every_degree_up_to_64)
{
    for (unsigned degree = 1; degree <= 64; ++degree) {
        const auto stream = lfsr_impulse_stream(degree, 500, 7000 + degree);
        EXPECT_EQ(berlekamp_massey(stream), degree) << "degree " << degree;
        EXPECT_EQ(oracle_berlekamp_massey(stream), degree)
            << "degree " << degree;
    }
}

TEST(berlekamp_massey, word_boundary_lengths)
{
    // C, B and the window cross a 64-bit word at these lengths and degrees.
    for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
        const std::vector<std::uint8_t> random = random_block(n, 8000 + n);
        EXPECT_EQ(berlekamp_massey(random), oracle_berlekamp_massey(random))
            << "n=" << n;
        std::vector<std::uint8_t> impulse(n, 0);
        impulse[n - 1] = 1;
        EXPECT_EQ(berlekamp_massey(impulse), n) << "n=" << n;
        const unsigned degree = static_cast<unsigned>(n);
        const auto stream =
            lfsr_impulse_stream(degree, 2 * n + 50, 9000 + n);
        EXPECT_EQ(berlekamp_massey(stream), degree) << "degree " << degree;
        EXPECT_EQ(oracle_berlekamp_massey(stream), degree)
            << "degree " << degree;
    }
}

TEST(linear_complexity_test, matches_oracle_recomputation_at_full_length)
{
    // The supervisor confirms on 8 windows of n = 65536; recompute nu, chi^2
    // and P with the byte oracle and the same arithmetic: exact equality.
    static const double pi[7] = {0.010417, 0.03125, 0.125, 0.5,
                                 0.25,     0.0625,  0.020833};
    constexpr unsigned m_len = 500;
    const double sign_m = 1.0;
    const double xi = m_len / 2.0 + (9.0 - sign_m) / 36.0
        - (m_len / 3.0 + 2.0 / 9.0) / std::ldexp(1.0, (int)m_len);
    for (const std::uint64_t seed : {11u, 12u}) {
        trng::ideal_source src(seed);
        const bit_sequence seq = src.generate(524288);
        const auto r = linear_complexity_test(seq, m_len);

        std::vector<std::uint64_t> nu(7, 0);
        const std::size_t blocks = seq.size() / m_len;
        for (std::size_t b = 0; b < blocks; ++b) {
            std::vector<std::uint8_t> block(m_len);
            for (unsigned j = 0; j < m_len; ++j) {
                block[j] = seq[b * m_len + j] ? 1 : 0;
            }
            const double t =
                sign_m
                    * (static_cast<double>(oracle_berlekamp_massey(block))
                       - xi)
                + 2.0 / 9.0;
            const double edges[6] = {-2.5, -1.5, -0.5, 0.5, 1.5, 2.5};
            unsigned category = 0;
            while (category < 6 && t > edges[category]) {
                ++category;
            }
            ++nu[category];
        }
        double chi = 0.0;
        for (unsigned c = 0; c < 7; ++c) {
            const double expected = static_cast<double>(blocks) * pi[c];
            const double dev = static_cast<double>(nu[c]) - expected;
            chi += dev * dev / expected;
        }
        EXPECT_EQ(r.blocks, blocks) << "seed " << seed;
        EXPECT_TRUE(r.nu == nu) << "seed " << seed;
        EXPECT_EQ(r.chi_squared, chi) << "seed " << seed;
        EXPECT_EQ(r.p_value, igamc(3.0, chi / 2.0)) << "seed " << seed;
    }
}

TEST(linear_complexity_test, healthy_source_passes)
{
    trng::ideal_source src(9);
    const auto r = linear_complexity_test(src.generate(100000), 500);
    EXPECT_EQ(r.blocks, 200u);
    EXPECT_GT(r.p_value, 1e-4);
    EXPECT_EQ(std::accumulate(r.nu.begin(), r.nu.end(), std::uint64_t{0}),
              200u);
}

TEST(linear_complexity_test, lfsr_stream_fails)
{
    // A degree-16 LFSR fools every simple statistic but has complexity 16
    // in each 500-bit block: every block lands in the lowest category.
    std::uint32_t lfsr = 0xACE1u;
    bit_sequence seq;
    for (unsigned i = 0; i < 100000; ++i) {
        const unsigned bit =
            ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1u;
        lfsr = static_cast<std::uint32_t>((lfsr >> 1) | (bit << 15));
        seq.push_back((lfsr & 1u) != 0);
    }
    const auto r = linear_complexity_test(seq, 500);
    EXPECT_LT(r.p_value, 1e-12);
    EXPECT_EQ(r.nu[3], 0u) << "no block near the random expectation M/2";
}

// ------------------------------------------------------ random excursions --
TEST(excursion_probabilities, closed_forms)
{
    // pi_0(x) = 1 - 1/(2|x|); sum over the six bins is 1.
    EXPECT_DOUBLE_EQ(excursion_visit_probability(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(excursion_visit_probability(1, 1), 0.25);
    EXPECT_DOUBLE_EQ(excursion_visit_probability(1, 5), 0.03125);
    EXPECT_DOUBLE_EQ(excursion_visit_probability(4, 0), 0.875);
    for (const int x : {-4, -3, -2, -1, 1, 2, 3, 4}) {
        double total = 0.0;
        for (unsigned k = 0; k <= 5; ++k) {
            total += excursion_visit_probability(x, k);
        }
        EXPECT_NEAR(total, 1.0, 1e-12) << "state " << x;
    }
}

TEST(random_excursions, nist_example_cycle_count)
{
    // 2.14.4: eps = 0110110101 has J = 3 cycles (the unfinished walk at
    // the end closes the last one).
    const auto r =
        random_excursions_test(bit_sequence::from_string("0110110101"));
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_FALSE(r.applicable) << "J = 3 is far below the 500 minimum";
    EXPECT_EQ(r.states.size(), 8u);
}

TEST(random_excursions, healthy_long_sequence)
{
    // J (the cycle count) has enormous variance -- E[J] ~ 0.8 sqrt(n) but
    // J < 500 happens for roughly half of all 2^20-bit windows, in which
    // case NIST marks the test inapplicable.  Seed 11 yields J = 1159.
    trng::ideal_source src(11);
    const auto r = random_excursions_test(src.generate(1u << 20));
    EXPECT_TRUE(r.applicable) << "J = " << r.cycles;
    for (std::size_t i = 0; i < r.p_values.size(); ++i) {
        EXPECT_GT(r.p_values[i], 1e-5) << "state " << r.states[i];
        EXPECT_LE(r.p_values[i], 1.0);
    }
}

TEST(random_excursions_variant, healthy_long_sequence)
{
    trng::ideal_source src(11);
    const auto r = random_excursions_variant_test(src.generate(1u << 20));
    EXPECT_TRUE(r.applicable);
    ASSERT_EQ(r.states.size(), 18u);
    ASSERT_EQ(r.visits.size(), 18u);
    for (std::size_t i = 0; i < r.p_values.size(); ++i) {
        EXPECT_GT(r.p_values[i], 1e-5) << "state " << r.states[i];
    }
}

TEST(random_excursions_variant, asymmetric_walk_fails)
{
    // Bias makes the walk transient (J collapses, the test correctly
    // becomes inapplicable), so the right stimulus is a *recurrent but
    // asymmetric* walk: the pattern 110100 returns to zero every six bits
    // while spending all its time above the axis, so xi(+1) = 3J.
    trng::periodic_source src(bit_sequence::from_string("110100"));
    const auto r = random_excursions_variant_test(src.generate(1u << 18));
    EXPECT_TRUE(r.applicable) << "J = " << r.cycles;
    unsigned failures = 0;
    for (const double p : r.p_values) {
        failures += (p < 0.01) ? 1 : 0;
    }
    EXPECT_GT(failures, 4u);
}

TEST(random_excursions_variant, transient_walk_is_inapplicable)
{
    // The NIST convention: heavy bias drives the walk away from zero, the
    // cycle count collapses, and the excursion tests abstain rather than
    // decide from a handful of cycles.
    trng::biased_source src(12, 0.55);
    const auto r = random_excursions_variant_test(src.generate(1u << 18));
    EXPECT_FALSE(r.applicable);
}

// ---------------------------------------------------------------- battery --
TEST(battery, healthy_source_passes_nearly_everything)
{
    // Seed 11 gives an excursion-applicable window (J = 1159), so all 15
    // tests contribute P-values.
    trng::ideal_source src(11);
    const auto report = run_battery(src.generate(1u << 20), 0.01);
    EXPECT_GT(report.entries.size(), 30u)
        << "15 tests, several with multiple P-values";
    EXPECT_EQ(report.skipped, 0u) << "this window qualifies every test";
    // ~40 P-values at alpha = 0.01: allow a small number of type-1 events.
    EXPECT_LE(report.failed, 2u);
}

TEST(battery, short_sequences_skip_inapplicable_tests)
{
    trng::ideal_source src(14);
    const auto report = run_battery(src.generate(65536), 0.01);
    EXPECT_GT(report.skipped, 0u)
        << "the excursion tests need ~500 cycles";
}

TEST(battery, stuck_source_fails_broadly)
{
    const auto report = run_battery(bit_sequence(65536, true), 0.01);
    EXPECT_GT(report.failed, 3u);
    EXPECT_FALSE(report.all_pass());
}

TEST(battery, registry_covers_all_fifteen_tests_in_order)
{
    const auto& tests = battery_tests();
    ASSERT_EQ(tests.size(), 15u);
    for (std::size_t i = 0; i < tests.size(); ++i) {
        EXPECT_EQ(tests[i].number, i + 1);
        EXPECT_FALSE(tests[i].name.empty());
        EXPECT_TRUE(static_cast<bool>(tests[i].run));
    }
}

TEST(battery, subset_selection_runs_only_the_selected_tests)
{
    trng::ideal_source src(31);
    const bit_sequence seq = src.generate(65536);
    const auto report = run_battery(
        seq, 0.01,
        battery_selection{}.with(1).with(3).with(13));
    // frequency (1 P-value) + runs (1) + cusum (2 P-values).
    ASSERT_EQ(report.entries.size(), 4u);
    EXPECT_EQ(report.entries[0].test_number, 1u);
    EXPECT_EQ(report.entries[1].test_number, 3u);
    EXPECT_EQ(report.entries[2].test_number, 13u);
    EXPECT_EQ(report.entries[3].test_number, 13u);
    EXPECT_EQ(report.skipped, 0u);
}

TEST(battery, subset_matches_the_full_pass_entry_for_entry)
{
    // No duplicated implementations: the subset API and the classic
    // full pass must produce identical P-values for the shared tests.
    trng::ideal_source src(32);
    const bit_sequence seq = src.generate(65536);
    const auto full = run_battery(seq, 0.01);
    const auto subset =
        run_battery(seq, 0.01, battery_selection{}.with(6).with(11));
    for (const auto& e : subset.entries) {
        bool found = false;
        for (const auto& f : full.entries) {
            if (f.test_number == e.test_number && f.name == e.name) {
                EXPECT_EQ(f.p_value, e.p_value) << e.name;
                EXPECT_EQ(f.pass, e.pass) << e.name;
                found = true;
            }
        }
        EXPECT_TRUE(found) << e.name;
    }
}

TEST(battery, short_sequences_record_skips_instead_of_dropping)
{
    trng::ideal_source src(33);
    const bit_sequence seq = src.generate(1024);
    const auto report =
        run_battery(seq, 0.01, battery_selection{}.with(8).with(10));
    // Both tests need more than 1024 bits: each must appear as a
    // skipped (inapplicable) entry, not vanish.
    ASSERT_EQ(report.entries.size(), 2u);
    EXPECT_EQ(report.skipped, 2u);
    EXPECT_FALSE(report.entries[0].applicable);
    EXPECT_FALSE(report.entries[1].applicable);
}

TEST(battery, selection_validates_test_numbers)
{
    EXPECT_THROW(battery_selection{}.with(0), std::invalid_argument);
    EXPECT_THROW(battery_selection{}.with(16), std::invalid_argument);
    trng::ideal_source src(34);
    EXPECT_THROW(run_battery(src.generate(1024), 0.01,
                             battery_selection{}),
                 std::invalid_argument);
    EXPECT_EQ(battery_selection::all().count(), 15u);
}

TEST(battery, report_serializes_as_json)
{
    trng::ideal_source src(35);
    const auto report = run_battery(
        src.generate(4096), 0.01,
        battery_selection{}.with(1).with(13));
    json_writer json;
    write_battery(json, {}, report);
    const std::string text = json.str();
    EXPECT_NE(text.find("\"entries\""), std::string::npos);
    EXPECT_NE(text.find("\"cusum forward\""), std::string::npos);
    EXPECT_NE(text.find("\"p_value\""), std::string::npos);
    EXPECT_NE(text.find("\"all_pass\""), std::string::npos);
}

} // namespace
