#include "nist/extended_tests.hpp"
#include "nist/gf2.hpp"
#include "nist/special_functions.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <vector>

namespace otf::nist {

matrix_rank_result matrix_rank_test(const bit_sequence& seq, unsigned rows,
                                    unsigned cols)
{
    if (rows == 0 || cols == 0 || cols > 64) {
        throw std::invalid_argument("matrix_rank_test: bad matrix shape");
    }
    const std::uint64_t bits_per_matrix =
        static_cast<std::uint64_t>(rows) * cols;
    const std::uint64_t matrices = seq.size() / bits_per_matrix;
    if (matrices == 0) {
        throw std::invalid_argument(
            "matrix_rank_test: sequence shorter than one matrix");
    }

    matrix_rank_result r;
    r.rows = rows;
    r.cols = cols;
    r.matrices = matrices;
    r.full_rank = 0;
    r.one_less = 0;
    r.remaining = 0;

    // Row r of a matrix is the `cols` bits at its offset, column j = bit j
    // = the j-th bit of the row in stream order, which is how the packed
    // words hold them: a 32 x 32 matrix is 1024 word-aligned bits, each row
    // one half of a word.  Matrices of up to 64 rows live on the stack.
    const unsigned full = (rows < cols) ? rows : cols;
    const std::span<const std::uint64_t> words = seq.words();
    const std::uint64_t row_mask = bits::low_mask(cols);
    std::array<std::uint64_t, 64> stack_rows;
    std::vector<std::uint64_t> heap_rows(rows > stack_rows.size() ? rows : 0);
    const std::span<std::uint64_t> matrix = rows > stack_rows.size()
        ? std::span<std::uint64_t>(heap_rows)
        : std::span<std::uint64_t>(stack_rows.data(), rows);
    for (std::uint64_t m = 0; m < matrices; ++m) {
        const std::size_t base = m * bits_per_matrix;
        for (unsigned row = 0; row < rows; ++row) {
            matrix[row] = bits::read64(
                              words, base + static_cast<std::size_t>(row) * cols)
                & row_mask;
        }
        const unsigned rank = gf2_rank(matrix, cols);
        if (rank == full) {
            ++r.full_rank;
        } else if (rank + 1 == full) {
            ++r.one_less;
        } else {
            ++r.remaining;
        }
    }

    // Exact category probabilities from the product formula; the third
    // category aggregates every rank below full - 1.
    const double p_full = gf2_rank_probability(rows, cols, full);
    const double p_one_less = gf2_rank_probability(rows, cols, full - 1);
    const double p_rest = 1.0 - p_full - p_one_less;

    const double n = static_cast<double>(matrices);
    const auto term = [&](double observed, double expected) {
        const double dev = observed - expected;
        return dev * dev / expected;
    };
    r.chi_squared = term(static_cast<double>(r.full_rank), n * p_full)
        + term(static_cast<double>(r.one_less), n * p_one_less)
        + term(static_cast<double>(r.remaining), n * p_rest);
    r.p_value = igamc(1.0, r.chi_squared / 2.0); // 2 degrees of freedom
    return r;
}

} // namespace otf::nist
