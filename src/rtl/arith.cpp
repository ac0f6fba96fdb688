#include "rtl/arith.hpp"

#include <stdexcept>

namespace otf::rtl {

multiplier::multiplier(std::string name, unsigned a_width, unsigned b_width)
    : component(std::move(name)), a_width_(a_width), b_width_(b_width)
{
    if (a_width == 0 || b_width == 0 || a_width + b_width > 63) {
        throw std::invalid_argument("multiplier: widths out of range");
    }
}

std::uint64_t multiplier::multiply(std::uint64_t a, std::uint64_t b) const
{
    return a * b;
}

resources multiplier::self_cost() const
{
    // Array multiplier on 6-input LUTs: roughly half a LUT per partial
    // product bit after packing (two partial-product adds per LUT), with a
    // carry chain spanning the result width.
    const std::uint32_t luts = (a_width_ * b_width_ + 1) / 2;
    return resources{.ffs = 0, .luts = luts,
                     .carry_bits = a_width_ + b_width_, .mux_levels = 0};
}

namespace {

/// Low `width` bits set, validated before the shift (a shift by 64 is
/// undefined).
std::uint64_t accumulator_mask(unsigned width)
{
    if (width == 0 || width > 62) {
        throw std::invalid_argument("accumulator: width out of range");
    }
    return (std::uint64_t{1} << width) - 1;
}

} // namespace

accumulator::accumulator(std::string name, unsigned width)
    : component(std::move(name)), width_(width),
      mask_(accumulator_mask(width))
{
}

void accumulator::accumulate(std::uint64_t addend)
{
    value_ = (value_ + addend) & mask_;
}

resources accumulator::self_cost() const
{
    return resources{.ffs = width_, .luts = width_, .carry_bits = width_,
                     .mux_levels = 0};
}

} // namespace otf::rtl
