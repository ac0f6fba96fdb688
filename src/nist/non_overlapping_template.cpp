#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <bit>
#include <stdexcept>

namespace otf::nist {

non_overlapping_template_result non_overlapping_template_test(
    const bit_sequence& seq, std::uint32_t templ, unsigned template_length,
    unsigned block_count)
{
    if (template_length == 0 || template_length > 31) {
        throw std::invalid_argument(
            "non_overlapping_template_test: m must be in [1, 31]");
    }
    if (block_count == 0) {
        throw std::invalid_argument(
            "non_overlapping_template_test: N must be > 0");
    }
    const std::size_t block_length = seq.size() / block_count;
    if (block_length < template_length) {
        throw std::invalid_argument(
            "non_overlapping_template_test: blocks shorter than template");
    }

    non_overlapping_template_result r;
    r.templ = templ;
    r.template_length = template_length;
    r.block_length = static_cast<unsigned>(block_length);
    r.w.reserve(block_count);

    // Non-overlapping scan: on a match the window restarts after the
    // template (the hardware engine resets its shift-register fill).  The
    // match mask covers 64 start positions at a time; a hit clears the
    // mask up to the end of its template, and a hit near the end of a
    // chunk carries the restart point into the next one.
    const std::span<const std::uint64_t> words = seq.words();
    const std::size_t starts = block_length - template_length + 1;
    for (unsigned b = 0; b < block_count; ++b) {
        const std::size_t base = static_cast<std::size_t>(b) * block_length;
        std::uint64_t hits = 0;
        std::size_t next = 0; // first start a match may take (block-relative)
        for (std::size_t i = 0; i < starts; i += 64) {
            const unsigned valid = starts - i < 64
                ? static_cast<unsigned>(starts - i)
                : 64;
            std::uint64_t mask =
                template_match_mask(words, base + i, templ, template_length)
                & bits::low_mask(valid);
            if (next > i) {
                mask = next - i >= 64 ? 0 : mask & ~bits::low_mask(
                                                static_cast<unsigned>(next - i));
            }
            while (mask != 0) {
                const std::size_t end = static_cast<std::size_t>(
                                            std::countr_zero(mask))
                    + template_length;
                ++hits;
                next = i + end;
                mask = end >= 64 ? 0 : mask & ~bits::low_mask(
                                              static_cast<unsigned>(end));
            }
        }
        r.w.push_back(hits);
    }

    const mean_variance mv = non_overlapping_template_moments(
        template_length, r.block_length);
    r.mean = mv.mean;
    r.variance = mv.variance;
    double chi = 0.0;
    for (const std::uint64_t w : r.w) {
        const double dev = static_cast<double>(w) - r.mean;
        chi += dev * dev / r.variance;
    }
    r.chi_squared = chi;
    r.p_value = igamc(static_cast<double>(block_count) / 2.0, chi / 2.0);
    return r;
}

} // namespace otf::nist
