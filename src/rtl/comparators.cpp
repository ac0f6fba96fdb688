#include "rtl/comparators.hpp"

#include <stdexcept>

namespace otf::rtl {

namespace {

/// Low `width` bits set, validated before the shift (a shift by 64 is
/// undefined).
std::uint64_t pattern_mask(unsigned width)
{
    if (width == 0 || width > 63) {
        throw std::invalid_argument("pattern width must be in [1, 63]");
    }
    return (std::uint64_t{1} << width) - 1;
}

} // namespace

pattern_matcher::pattern_matcher(std::string name, unsigned width,
                                 std::uint64_t pattern)
    : component(std::move(name)), width_(width), mask_(pattern_mask(width)),
      pattern_(pattern & mask_)
{
}

bool pattern_matcher::matches(std::uint64_t window) const
{
    return (window & mask_) == pattern_;
}

resources pattern_matcher::self_cost() const
{
    // Equality against a constant: a 6-input LUT absorbs 6 bits; the AND of
    // the partial results folds into one more LUT when wider than 6 bits.
    const std::uint32_t groups = (width_ + 5) / 6;
    const std::uint32_t luts = groups + (groups > 1 ? 1 : 0);
    return resources{.ffs = 0, .luts = luts, .carry_bits = 0, .mux_levels = 0};
}

magnitude_comparator::magnitude_comparator(std::string name, unsigned width,
                                           std::uint64_t threshold)
    : component(std::move(name)), width_(width), threshold_(threshold)
{
    if (width == 0 || width > 63) {
        throw std::invalid_argument("comparator width must be in [1, 63]");
    }
}

resources magnitude_comparator::self_cost() const
{
    // Subtract-and-test-borrow on the carry chain: ~1 LUT per 2 bits.
    const std::uint32_t luts = (width_ + 1) / 2;
    return resources{.ffs = 0, .luts = luts, .carry_bits = width_,
                     .mux_levels = 0};
}

} // namespace otf::rtl
