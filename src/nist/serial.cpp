#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace otf::nist {

std::vector<std::uint64_t> cyclic_pattern_counts(const bit_sequence& seq,
                                                 unsigned m)
{
    if (m == 0 || m > 24) {
        throw std::invalid_argument("cyclic_pattern_counts: m in [1, 24]");
    }
    if (seq.size() < m) {
        throw std::invalid_argument(
            "cyclic_pattern_counts: sequence shorter than pattern");
    }
    // Count by the LSB-first window value (bit j = the window's j-th bit),
    // then map each count to its MSB-first pattern at the end.
    const std::size_t n = seq.size();
    const std::uint64_t mask = bits::low_mask(m);
    std::vector<std::uint64_t> lsb(std::size_t{1} << m, 0);
    const std::span<const std::uint64_t> words = seq.words();
    // Starts whose window lies inside the sequence, 64 at a time from two
    // words (hi << 1 << (63 - k) is hi << (64 - k) without the k = 0 UB).
    const std::size_t inside = n - m + 1;
    std::size_t p = 0;
    for (; p + 64 <= inside; p += 64) {
        const std::uint64_t lo = words[p / 64];
        const std::uint64_t hi = bits::read64(words, p + 64);
        for (unsigned k = 0; k < 64; ++k) {
            ++lsb[((lo >> k) | ((hi << 1) << (63 - k))) & mask];
        }
    }
    // The remaining starts, the m - 1 that wrap included: the sequence's
    // tail followed by its first m - 1 bits, read straight through.
    bit_sequence tail = seq.slice(p, n - p);
    for (unsigned j = 0; j + 1 < m; ++j) {
        tail.push_back(seq[j]);
    }
    for (std::size_t q = 0; p + q < n; ++q) {
        ++lsb[bits::read64(tail.words(), q) & mask];
    }
    std::vector<std::uint64_t> counts(lsb.size(), 0);
    for (std::uint64_t v = 0; v < lsb.size(); ++v) {
        counts[bits::reverse64(v) >> (64 - m)] = lsb[v];
    }
    return counts;
}

std::vector<std::uint64_t> cyclic_pattern_marginal(
    const std::vector<std::uint64_t>& counts)
{
    std::vector<std::uint64_t> marginal(counts.size() / 2);
    for (std::size_t u = 0; u < marginal.size(); ++u) {
        marginal[u] = counts[2 * u] + counts[2 * u + 1];
    }
    return marginal;
}

namespace {

double psi_squared(const std::vector<std::uint64_t>& counts, std::size_t n)
{
    // psi^2_m = (2^m / n) * sum nu_i^2  -  n
    double sum_sq = 0.0;
    for (const std::uint64_t c : counts) {
        sum_sq += static_cast<double>(c) * static_cast<double>(c);
    }
    const double blocks = static_cast<double>(counts.size());
    return blocks / static_cast<double>(n) * sum_sq - static_cast<double>(n);
}

// The two statistics as exact integer sums of squares over the m-bit
// counts (index = first bit << (m-1) | middle << 1 | last bit), instead of
// differences of psi^2 values whose -n terms cancel: at lengths that are
// not powers of two, 2^m / n is inexact, and a difference that is exactly
// 0 could come out slightly negative and push igamc out of its domain.
// Cyclic counts of shorter patterns are marginals of the m-bit counts, so
// in exact arithmetic
//   nabla   psi^2_m = 2^(m-1)/n * sum_w (nu_w0 - nu_w1)^2
//   nabla^2 psi^2_m = 2^(m-2)/n * sum_u (nu_0u0 - nu_0u1 - nu_1u0 + nu_1u1)^2
// which are non-negative by construction.
double nabla_psi_squared(const std::vector<std::uint64_t>& nu_m, unsigned m,
                         std::size_t n)
{
    double sum_sq = 0.0;
    for (std::size_t w = 0; w < nu_m.size(); w += 2) {
        const auto d = static_cast<double>(
            static_cast<std::int64_t>(nu_m[w])
            - static_cast<std::int64_t>(nu_m[w + 1]));
        sum_sq += d * d;
    }
    return std::ldexp(sum_sq, static_cast<int>(m) - 1)
        / static_cast<double>(n);
}

double nabla2_psi_squared(const std::vector<std::uint64_t>& nu_m,
                          unsigned m, std::size_t n)
{
    const std::size_t one = nu_m.size() / 2; // offset of first bit = 1
    double sum_sq = 0.0;
    for (std::size_t u = 0; u < one; u += 2) {
        const auto d = static_cast<double>(
            static_cast<std::int64_t>(nu_m[u])
            - static_cast<std::int64_t>(nu_m[u + 1])
            - static_cast<std::int64_t>(nu_m[one + u])
            + static_cast<std::int64_t>(nu_m[one + u + 1]));
        sum_sq += d * d;
    }
    return std::ldexp(sum_sq, static_cast<int>(m) - 2)
        / static_cast<double>(n);
}

} // namespace

serial_result serial_test(const bit_sequence& seq, unsigned m)
{
    if (m < 2) {
        throw std::invalid_argument("serial_test: m must be >= 2");
    }
    serial_result r;
    r.m = m;
    // One pass over the words for the m-bit counts; the shorter ones are
    // their marginals.
    r.nu_m = cyclic_pattern_counts(seq, m);
    r.nu_m1 = cyclic_pattern_marginal(r.nu_m);
    r.nu_m2 = cyclic_pattern_marginal(r.nu_m1);
    const std::size_t n = seq.size();
    // At m = 2 the "0-bit pattern" appears exactly n times (nu_m2 = {n});
    // psi^2_0 is zero by definition (SP 800-22 section 2.11).
    r.psi2_m2 = m == 2 ? 0.0 : psi_squared(r.nu_m2, n);
    r.psi2_m = psi_squared(r.nu_m, n);
    r.psi2_m1 = psi_squared(r.nu_m1, n);
    r.del1 = nabla_psi_squared(r.nu_m, m, n);
    r.del2 = nabla2_psi_squared(r.nu_m, m, n);
    const double dof1 = std::ldexp(1.0, static_cast<int>(m) - 1); // 2^{m-1}
    const double dof2 = std::ldexp(1.0, static_cast<int>(m) - 2); // 2^{m-2}
    r.p_value1 = igamc(dof1 / 2.0, r.del1 / 2.0);
    r.p_value2 = igamc(dof2 / 2.0, r.del2 / 2.0);
    return r;
}

} // namespace otf::nist
