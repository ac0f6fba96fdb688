#include "nist/gf2.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace otf::nist {

unsigned gf2_rank(std::span<std::uint64_t> rows, unsigned cols)
{
    if (cols > 64) {
        throw std::invalid_argument("gf2_rank: at most 64 columns");
    }
    // Only the rows below a pivot are cleared: the rank is the number of
    // pivots either way.  The clearing is branchless (a row takes the
    // pivot row masked by its own bit in the pivot column).
    const std::size_t n = rows.size();
    unsigned rank = 0;
    for (unsigned col = 0; col < cols && rank < n; ++col) {
        std::size_t pivot = rank;
        while (pivot < n && ((rows[pivot] >> col) & 1u) == 0) {
            ++pivot;
        }
        if (pivot == n) {
            continue;
        }
        std::swap(rows[rank], rows[pivot]);
        const std::uint64_t p = rows[rank];
        for (std::size_t r = rank + 1; r < n; ++r) {
            rows[r] ^= p & (std::uint64_t{0} - ((rows[r] >> col) & 1u));
        }
        ++rank;
    }
    return rank;
}

double gf2_rank_probability(unsigned m, unsigned q, unsigned r)
{
    const unsigned full = (m < q) ? m : q;
    if (r > full) {
        return 0.0;
    }
    // P(rank = r) = 2^{r(q+m-r) - mq} * prod_{i=0}^{r-1}
    //   (1 - 2^{i-q})(1 - 2^{i-m}) / (1 - 2^{i-r})
    double log2_prob = static_cast<double>(r)
            * (static_cast<double>(q) + m - r)
        - static_cast<double>(m) * q;
    double product = 1.0;
    for (unsigned i = 0; i < r; ++i) {
        const double a =
            1.0 - std::ldexp(1.0, static_cast<int>(i) - static_cast<int>(q));
        const double b =
            1.0 - std::ldexp(1.0, static_cast<int>(i) - static_cast<int>(m));
        const double c =
            1.0 - std::ldexp(1.0, static_cast<int>(i) - static_cast<int>(r));
        product *= a * b / c;
    }
    return std::ldexp(product, static_cast<int>(log2_prob));
}

} // namespace otf::nist
