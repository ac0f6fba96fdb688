#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <cmath>
#include <cstdint>
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
    std::vector<std::uint64_t> counts(std::size_t{1} << m, 0);
    const std::uint32_t mask = (1u << m) - 1u;
    // Prime the window with the first m-1 bits, then slide once per start
    // position; positions near the end wrap around (cyclic extension).
    std::uint32_t window = 0;
    for (unsigned j = 0; j + 1 < m; ++j) {
        window = ((window << 1) | (seq[j] ? 1u : 0u)) & mask;
    }
    const std::size_t n = seq.size();
    for (std::size_t start = 0; start < n; ++start) {
        const std::size_t last = (start + m - 1) % n;
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    return counts;
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
    r.nu_m = cyclic_pattern_counts(seq, m);
    r.nu_m1 = cyclic_pattern_counts(seq, m - 1);
    const std::size_t n = seq.size();
    if (m == 2) {
        // The "0-bit pattern" appears exactly n times; psi^2_0 is zero by
        // definition (SP 800-22 section 2.11).
        r.nu_m2 = {static_cast<std::uint64_t>(n)};
        r.psi2_m2 = 0.0;
    } else {
        r.nu_m2 = cyclic_pattern_counts(seq, m - 2);
        r.psi2_m2 = psi_squared(r.nu_m2, n);
    }
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
