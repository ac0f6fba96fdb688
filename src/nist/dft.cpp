#include "nist/extended_tests.hpp"
#include "nist/fft.hpp"
#include "nist/special_functions.hpp"

#include <cmath>
#include <stdexcept>

namespace otf::nist {

dft_result dft_test(const bit_sequence& seq)
{
    const std::size_t n = seq.size();
    if (n < 2) {
        throw std::invalid_argument("dft_test: need at least two bits");
    }
    dft_result r;
    const double nd = static_cast<double>(n);
    // 95% peak threshold: T = sqrt(n ln(1/0.05)).
    r.threshold = std::sqrt(nd * std::log(1.0 / 0.05));
    r.n0 = 0.95 * nd / 2.0;
    r.n1 = static_cast<double>(dft_count_below(seq, r.threshold));
    r.d = (r.n1 - r.n0) / std::sqrt(nd * 0.95 * 0.05 / 4.0);
    r.p_value = erfc(std::fabs(r.d) / std::sqrt(2.0));
    return r;
}

} // namespace otf::nist
