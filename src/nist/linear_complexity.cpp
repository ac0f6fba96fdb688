#include "nist/extended_tests.hpp"
#include "nist/special_functions.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

namespace otf::nist {

namespace {

/// Word buffers of Berlekamp-Massey, reused across the blocks of one test.
/// Bit j of word j/64 is coefficient j of C(x) and B(x).
struct bm_words {
    std::vector<std::uint64_t> reversed; ///< the block, back to front
    std::vector<std::uint64_t> c;
    std::vector<std::uint64_t> b;
    std::vector<std::uint64_t> t;
};

/// Pack the n-bit block at bit `first` of a packed sequence back to front
/// (bit k is s_{n-1-k}) followed by zero words, so that the window s_i,
/// s_{i-1}, ..., s_{i-L} is the bit run that starts at offset n-1-i.  Each
/// output word is one 64-bit read, reversed; the last, partial one holds
/// the block's first bits.
void pack_reversed(std::span<const std::uint64_t> words, std::size_t first,
                   std::size_t n, std::vector<std::uint64_t>& out)
{
    out.assign(n / 64 + 2, 0);
    for (std::size_t q = 0; 64 * q < n; ++q) {
        const std::size_t done = 64 * q;
        if (done + 64 <= n) {
            out[q] = bits::reverse64(bits::read64(words, first + n - 64 - done));
        } else {
            const unsigned r = static_cast<unsigned>(n - done);
            out[q] = bits::reverse64(bits::read64(words, first) & bits::low_mask(r))
                >> (64 - r);
        }
    }
}

/// Berlekamp-Massey over GF(2) on the packed block in `w.reversed`.  The
/// discrepancy s_i + sum_{j=1..L} c_j s_{i-j} is the parity of
/// popcount(C & window) over the L/64 + 1 words that hold C (deg C <= L);
/// the update C += x^(i-m) B is a word shift-XOR over the words of B
/// (deg B <= the L it was copied at), and C is copied only when L grows.
unsigned packed_berlekamp_massey(std::size_t n, bm_words& w)
{
    const std::uint64_t* const s = w.reversed.data();
    const std::size_t words = n / 64 + 2;
    w.c.assign(words, 0);
    w.b.assign(words, 0);
    w.t.resize(words);
    w.c[0] = 1;
    w.b[0] = 1;
    std::size_t l = 0;
    std::size_t l_b = 0; // the L at which B was copied
    std::size_t m_next = 0; // m + 1, m being the last i where L grew (-1)
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t first = n - 1 - i;
        const std::uint64_t* const window = s + first / 64;
        const unsigned off = static_cast<unsigned>(first % 64);
        const std::size_t c_words = l / 64 + 1;
        std::uint64_t acc = 0;
        if (off == 0) {
            for (std::size_t k = 0; k < c_words; ++k) {
                acc ^= w.c[k] & window[k];
            }
        } else {
            for (std::size_t k = 0; k < c_words; ++k) {
                acc ^= w.c[k]
                    & ((window[k] >> off) | (window[k + 1] << (64 - off)));
            }
        }
        if ((std::popcount(acc) & 1) == 0) {
            continue;
        }
        const bool grows = 2 * l <= i;
        if (grows) {
            std::copy_n(w.c.begin(), c_words, w.t.begin());
        }
        const std::size_t shift = i + 1 - m_next;
        const std::size_t word_shift = shift / 64;
        const unsigned bit_shift = static_cast<unsigned>(shift % 64);
        const std::size_t b_words = l_b / 64 + 1;
        std::uint64_t* const dst = w.c.data() + word_shift;
        if (bit_shift == 0) {
            for (std::size_t k = 0; k < b_words; ++k) {
                dst[k] ^= w.b[k];
            }
        } else {
            for (std::size_t k = 0; k < b_words; ++k) {
                dst[k] ^= w.b[k] << bit_shift;
                dst[k + 1] ^= w.b[k] >> (64 - bit_shift);
            }
        }
        if (grows) {
            l_b = l;
            l = i + 1 - l;
            m_next = i + 1;
            std::swap(w.b, w.t);
        }
    }
    return static_cast<unsigned>(l);
}

} // namespace

unsigned berlekamp_massey(const std::vector<std::uint8_t>& bits)
{
    bit_sequence seq;
    seq.reserve(bits.size());
    for (const std::uint8_t b : bits) {
        seq.push_back((b & 1u) != 0);
    }
    bm_words w;
    pack_reversed(seq.words(), 0, bits.size(), w.reversed);
    return packed_berlekamp_massey(bits.size(), w);
}

linear_complexity_result linear_complexity_test(const bit_sequence& seq,
                                                unsigned block_length)
{
    if (block_length < 4) {
        throw std::invalid_argument(
            "linear_complexity_test: M must be at least 4");
    }
    const std::uint64_t blocks = seq.size() / block_length;
    if (blocks == 0) {
        throw std::invalid_argument(
            "linear_complexity_test: sequence shorter than one block");
    }

    linear_complexity_result r;
    r.block_length = block_length;
    r.blocks = blocks;
    r.nu.assign(7, 0);

    // SP 800-22 table 2-10 category probabilities for the T statistic.
    static const double pi[7] = {0.010417, 0.03125, 0.125, 0.5,
                                 0.25,     0.0625,  0.020833};

    const double m_len = static_cast<double>(block_length);
    const double sign_m = (block_length % 2 == 0) ? 1.0 : -1.0;
    // mu = M/2 + (9 + (-1)^{M+1})/36 - (M/3 + 2/9) / 2^M
    const double xi = m_len / 2.0 + (9.0 - sign_m) / 36.0
        - (m_len / 3.0 + 2.0 / 9.0) / std::ldexp(1.0, (int)block_length);

    bm_words w;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::size_t base =
            static_cast<std::size_t>(b) * block_length;
        pack_reversed(seq.words(), base, block_length, w.reversed);
        const unsigned l = packed_berlekamp_massey(block_length, w);
        const double t =
            sign_m * (static_cast<double>(l) - xi) + 2.0 / 9.0;
        unsigned category;
        if (t <= -2.5) {
            category = 0;
        } else if (t <= -1.5) {
            category = 1;
        } else if (t <= -0.5) {
            category = 2;
        } else if (t <= 0.5) {
            category = 3;
        } else if (t <= 1.5) {
            category = 4;
        } else if (t <= 2.5) {
            category = 5;
        } else {
            category = 6;
        }
        ++r.nu[category];
    }

    const double n = static_cast<double>(blocks);
    double chi = 0.0;
    for (unsigned c = 0; c < 7; ++c) {
        const double expected = n * pi[c];
        const double dev = static_cast<double>(r.nu[c]) - expected;
        chi += dev * dev / expected;
    }
    r.chi_squared = chi;
    r.p_value = igamc(3.0, chi / 2.0); // 6 degrees of freedom
    return r;
}

} // namespace otf::nist
