#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace otf::nist {

namespace {

/// Longest run of ones in bits [first, first + length), 64 bits at a time.
/// A chunk of k bits that is all ones extends the run carried in from the
/// previous chunk; otherwise the carried run ends at the chunk's leading
/// ones, the chunk's own longest run is found by shift-AND (one step per
/// bit of the answer), and the run carried out is its trailing ones.
unsigned longest_ones_run(std::span<const std::uint64_t> words,
                          std::size_t first, std::size_t length)
{
    unsigned longest = 0;
    unsigned current = 0;
    for (std::size_t done = 0; done < length; done += 64) {
        const unsigned k = length - done < 64
            ? static_cast<unsigned>(length - done)
            : 64;
        const std::uint64_t x =
            bits::read64(words, first + done) & bits::low_mask(k);
        if (x == bits::low_mask(k)) {
            current += k;
            longest = std::max(longest, current);
            continue;
        }
        longest = std::max(
            longest, current + static_cast<unsigned>(std::countr_one(x)));
        unsigned inner = 0;
        for (std::uint64_t y = x; y != 0; y &= y >> 1) {
            ++inner;
        }
        longest = std::max(longest, inner);
        current = static_cast<unsigned>(std::countl_one(x << (64 - k)));
    }
    return longest;
}

} // namespace

longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length)
{
    const longest_run_categories cats =
        recommended_longest_run_categories(block_length);
    return longest_run_test(seq, block_length, cats.v_lo, cats.v_hi);
}

longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length, unsigned v_lo,
                                    unsigned v_hi)
{
    if (block_length == 0) {
        throw std::invalid_argument("longest_run_test: M must be > 0");
    }
    const std::size_t block_count = seq.size() / block_length;
    if (block_count == 0) {
        throw std::invalid_argument(
            "longest_run_test: sequence shorter than one block");
    }

    longest_run_result r;
    r.block_length = block_length;
    r.v_lo = v_lo;
    r.v_hi = v_hi;
    r.pi = longest_run_category_probs(block_length, v_lo, v_hi);
    r.nu.assign(r.pi.size(), 0);

    for (std::size_t b = 0; b < block_count; ++b) {
        const unsigned run = longest_ones_run(seq.words(), b * block_length,
                                              block_length);
        unsigned category;
        if (run <= v_lo) {
            category = 0;
        } else if (run >= v_hi) {
            category = v_hi - v_lo;
        } else {
            category = run - v_lo;
        }
        ++r.nu[category];
    }

    const double N = static_cast<double>(block_count);
    double chi = 0.0;
    for (std::size_t c = 0; c < r.nu.size(); ++c) {
        const double expected = N * r.pi[c];
        const double dev = static_cast<double>(r.nu[c]) - expected;
        chi += dev * dev / expected;
    }
    r.chi_squared = chi;
    const double dof = static_cast<double>(r.nu.size()) - 1.0;
    r.p_value = igamc(dof / 2.0, chi / 2.0);
    return r;
}

} // namespace otf::nist
