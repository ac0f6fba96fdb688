#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <bit>
#include <stdexcept>

namespace otf::nist {

std::uint64_t template_match_mask(std::span<const std::uint64_t> words,
                                  std::size_t pos, std::uint32_t templ,
                                  unsigned m)
{
    // Template bit j (MSB-first) is compared with stream bits pos + j + k
    // for all 64 k at once: the words starting at pos, shifted down by j.
    const std::uint64_t lo = bits::read64(words, pos);
    const std::uint64_t hi = bits::read64(words, pos + 64);
    std::uint64_t mask = ~std::uint64_t{0};
    for (unsigned j = 0; j < m; ++j) {
        const std::uint64_t x = j == 0 ? lo : (lo >> j) | (hi << (64 - j));
        mask &= ((templ >> (m - 1 - j)) & 1u) != 0 ? x : ~x;
    }
    return mask;
}

overlapping_template_result overlapping_template_test(const bit_sequence& seq,
                                                      unsigned template_length,
                                                      unsigned block_length,
                                                      unsigned max_count)
{
    const std::uint32_t all_ones = (1u << template_length) - 1u;
    return overlapping_template_test(seq, all_ones, template_length,
                                     block_length, max_count);
}

overlapping_template_result overlapping_template_test(const bit_sequence& seq,
                                                      std::uint32_t templ,
                                                      unsigned template_length,
                                                      unsigned block_length,
                                                      unsigned max_count)
{
    if (template_length == 0 || template_length > 31) {
        throw std::invalid_argument(
            "overlapping_template_test: m must be in [1, 31]");
    }
    if (block_length < template_length) {
        throw std::invalid_argument(
            "overlapping_template_test: block shorter than template");
    }
    const std::size_t block_count = seq.size() / block_length;
    if (block_count == 0) {
        throw std::invalid_argument(
            "overlapping_template_test: sequence shorter than one block");
    }

    overlapping_template_result r;
    r.templ = templ;
    r.template_length = template_length;
    r.block_length = block_length;
    r.max_count = max_count;
    r.nu.assign(max_count + 1, 0);
    r.pi = overlapping_template_category_probs(templ, template_length,
                                               block_length, max_count);

    const std::span<const std::uint64_t> words = seq.words();
    const std::size_t starts = block_length - template_length + 1;
    for (std::size_t b = 0; b < block_count; ++b) {
        const std::size_t base = b * block_length;
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < starts; i += 64) {
            const unsigned valid = starts - i < 64
                ? static_cast<unsigned>(starts - i)
                : 64;
            hits += static_cast<std::uint64_t>(std::popcount(
                template_match_mask(words, base + i, templ, template_length)
                & bits::low_mask(valid)));
        }
        const std::size_t category =
            (hits >= max_count) ? max_count : static_cast<std::size_t>(hits);
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
    r.p_value = igamc(static_cast<double>(max_count) / 2.0, chi / 2.0);
    return r;
}

} // namespace otf::nist
