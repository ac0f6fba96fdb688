#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

runs_result runs_test(const bit_sequence& seq)
{
    if (seq.size() < 2) {
        throw std::invalid_argument("runs_test: need at least two bits");
    }
    const double n = static_cast<double>(seq.size());
    runs_result r;
    r.pi = static_cast<double>(seq.count_ones()) / n;

    // SP 800-22 prerequisite: the frequency test must not already fail
    // catastrophically, |pi - 1/2| < tau = 2 / sqrt(n).
    const double tau = 2.0 / std::sqrt(n);
    r.applicable = std::fabs(r.pi - 0.5) < tau;

    // Runs = 1 + transitions between adjacent bits: the full words through
    // the span kernel, then the partial last word and its seam.
    const std::span<const std::uint64_t> words = seq.words();
    const std::size_t full = seq.size() / 64;
    const unsigned tail = static_cast<unsigned>(seq.size() % 64);
    std::uint64_t transitions = bits::span_transitions(words.data(), full);
    if (tail != 0) {
        const std::uint64_t x = words[full];
        transitions += static_cast<std::uint64_t>(
            std::popcount((x ^ (x >> 1)) & bits::low_mask(tail - 1)));
        if (full != 0) {
            transitions += (words[full - 1] >> 63) ^ (x & 1u);
        }
    }
    r.v_n = 1 + transitions;

    if (!r.applicable) {
        r.p_value = 0.0;
        return r;
    }
    const double expected = 2.0 * n * r.pi * (1.0 - r.pi);
    const double denom = 2.0 * std::sqrt(2.0 * n) * r.pi * (1.0 - r.pi);
    r.p_value = erfc(std::fabs(static_cast<double>(r.v_n) - expected) / denom);
    return r;
}

} // namespace otf::nist
