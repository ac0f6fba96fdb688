// GF(2) linear algebra for the binary matrix rank test.
//
// The rank test is one of the six tests the paper excludes from hardware
// (Table I: it must buffer 32x32 matrices and run Gaussian elimination).
// The platform therefore provides it only as part of the offline reference
// battery -- the paper's future-work item "implementing the remaining
// tests from the NIST test suite".
#pragma once

#include <cstdint>
#include <span>

namespace otf::nist {

/// Rank over GF(2) of a matrix given as row bitmasks (column j = bit j),
/// `cols` <= 64.  Forward elimination in place: the rows are overwritten.
unsigned gf2_rank(std::span<std::uint64_t> rows, unsigned cols);

/// Probability that a random m x q binary matrix has rank exactly r
/// (product formula; exact in double precision for the 32 x 32 case).
double gf2_rank_probability(unsigned m, unsigned q, unsigned r);

} // namespace otf::nist
