// Numerical tests of the special functions: known values, inverse
// round-trips and domain guards.  These functions generate every
// precomputed critical value, so their accuracy underwrites the whole
// software side.
#include "nist/special_functions.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

namespace {

using namespace otf::nist;

TEST(erfc_inv, round_trips_through_erfc)
{
    for (const double p : {1e-6, 1e-4, 0.001, 0.01, 0.1, 0.5, 1.0, 1.5,
                           1.99}) {
        EXPECT_NEAR(otf::nist::erfc(erfc_inv(p)), p, p * 1e-10) << "p=" << p;
    }
}

TEST(erfc_inv, known_values)
{
    // erfc(x) = 0.01 at x = 1.82138636...
    EXPECT_NEAR(erfc_inv(0.01), 1.8213863677, 1e-9);
    // erfc(x) = 0.001 at x = 2.32675376...
    EXPECT_NEAR(erfc_inv(0.001), 2.3267537655, 1e-9);
    EXPECT_NEAR(erfc_inv(1.0), 0.0, 1e-12);
}

TEST(erfc_inv, rejects_out_of_domain)
{
    EXPECT_THROW(erfc_inv(0.0), std::domain_error);
    EXPECT_THROW(erfc_inv(2.0), std::domain_error);
    EXPECT_THROW(erfc_inv(-1.0), std::domain_error);
}

TEST(normal_quantile, matches_tabulated_quantiles)
{
    EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-8);
    EXPECT_NEAR(normal_quantile(0.99), 2.326347874, 1e-8);
    EXPECT_NEAR(normal_quantile(0.999), 3.090232306, 1e-8);
    EXPECT_NEAR(normal_quantile(0.001), -3.090232306, 1e-8);
}

TEST(normal_quantile, round_trips_through_cdf)
{
    for (const double p : {1e-8, 1e-4, 0.3, 0.7, 0.9999, 1.0 - 1e-9}) {
        EXPECT_NEAR(normal_cdf(normal_quantile(p)), p,
                    1e-12 + p * 1e-10);
    }
}

TEST(igamc, known_values)
{
    // igamc(a, 0) = 1.
    EXPECT_DOUBLE_EQ(igamc(3.0, 0.0), 1.0);
    // igamc(1, x) = exp(-x).
    EXPECT_NEAR(igamc(1.0, 2.0), std::exp(-2.0), 1e-14);
    // igamc(1.5, 0.5) appears in the NIST block-frequency example.
    EXPECT_NEAR(igamc(1.5, 0.5), 0.801252, 1e-6);
    // igamc(0.5, x) = erfc(sqrt(x)).
    EXPECT_NEAR(igamc(0.5, 1.7), otf::nist::erfc(std::sqrt(1.7)), 1e-13);
}

TEST(igamc, complements_igam)
{
    for (const double a : {0.5, 1.0, 2.5, 8.0, 32.0}) {
        for (const double x : {0.1, 1.0, 5.0, 40.0}) {
            EXPECT_NEAR(igam(a, x) + igamc(a, x), 1.0, 1e-12)
                << "a=" << a << " x=" << x;
        }
    }
}

TEST(igamc, monotone_decreasing_in_x)
{
    double previous = 1.0;
    for (double x = 0.5; x < 30.0; x += 0.5) {
        const double q = igamc(4.0, x);
        EXPECT_LT(q, previous);
        previous = q;
    }
}

TEST(igamc_inv, round_trips)
{
    for (const double a : {0.5, 1.0, 2.0, 4.0, 8.0, 128.0}) {
        for (const double q : {0.001, 0.01, 0.3, 0.9}) {
            const double x = igamc_inv(a, q);
            EXPECT_NEAR(igamc(a, x), q, 1e-9 * (1.0 + 1.0 / q))
                << "a=" << a << " q=" << q;
        }
    }
}

// Edge cases.  Reference values are 40-digit evaluations of the
// regularized upper incomplete gamma function (mpmath gammainc).

TEST(igamc, vanishing_x_gives_one)
{
    const double denorm = std::numeric_limits<double>::denorm_min();
    for (const double a : {0.5, 1.0, 3.0, 64.0}) {
        EXPECT_EQ(igamc(a, denorm), 1.0) << "a=" << a;
        EXPECT_EQ(igamc(a, 1e-300), 1.0) << "a=" << a;
        EXPECT_GE(igam(a, denorm), 0.0) << "a=" << a;
        EXPECT_LT(igam(a, denorm), 1e-150) << "a=" << a;
    }
    // Q(1, x) = exp(-x) stays exact as x -> 0+.
    EXPECT_NEAR(igamc(1.0, 1e-10), std::exp(-1e-10), 1e-16);
}

TEST(igamc, tiny_a)
{
    // Q(a, x) ~ a E1(x) as a -> 0+.  On the continued-fraction branch the
    // result keeps its relative accuracy down to a = 1e-300.
    EXPECT_NEAR(igamc(1e-300, 1.0) / 2.1938393439552027368e-301, 1.0, 1e-12);
    EXPECT_NEAR(igamc(1e-10, 2.0) / 4.8900510715699742339e-12, 1.0, 1e-9);
    // On the series branch it is 1 - P: absolute accuracy only.
    EXPECT_NEAR(igamc(1e-10, 1.0), 2.1938393441796777775e-11, 1e-14);
    EXPECT_NEAR(igamc(1e-10, 1e-10), 2.2448635240024109438e-9, 1e-14);
    EXPECT_NEAR(igamc(1e-3, 1e-3), 0.0063123532911397097934, 1e-14);
}

TEST(igamc, large_a_runs_expansions_to_convergence)
{
    // Near x = a both expansions need O(sqrt(a)) terms; stopping them at
    // a fixed count gives values far off (0.809 for Q(1e6, 1e6)).
    EXPECT_NEAR(igamc(2048.0, 2048.0), 0.49706150462322004196, 1e-12);
    EXPECT_NEAR(igamc(1e4, 1e4), 0.49867019166004479962, 1e-11);
    EXPECT_NEAR(igamc(1e6, 1e6), 0.49986701923912740876, 1e-9);
    EXPECT_NEAR(igamc(1e6, 997000.0), 0.99866189583268640031, 1e-9);
    EXPECT_NEAR(igamc(1e6, 1003000.0), 0.0013617406462175914794, 1e-9);
    // Far tail underflows to exactly zero, never negative.
    EXPECT_EQ(igamc(2.0, 800.0), 0.0);
    EXPECT_EQ(igamc(1e4, 1e5), 0.0);
}

TEST(igamc, large_a_prefix_keeps_full_precision)
{
    // The prefix log(x^a e^-x / Gamma(a)) cancels terms of size a ln a;
    // formed directly it is off by 7e-10 at a = 1e6 and 2e-8 at a = 1e8,
    // which moves Q by up to 1e-8 and the inverse by up to 3e-3.
    // References: 40-digit mpmath gammainc.
    EXPECT_NEAR(igamc(1e6, 1e6), 0.49986701923912740876, 1e-12);
    EXPECT_NEAR(igamc(1e6, 999000.0), 0.84134478642569634754, 1e-12);
    EXPECT_NEAR(igamc(1e6, 1002000.0), 0.022804095898769862758, 1e-12);
    EXPECT_NEAR(igamc(1e8, 1e8), 0.49998670192398588013, 2e-12);
    EXPECT_NEAR(igamc(1e8, 99990000.0), 0.84134474647185616959, 2e-12);
    EXPECT_NEAR(igamc(1e8, 100020000.0), 0.022755530774855202606, 2e-12);
    EXPECT_NEAR(igamc(1e8, 100030000.0), 0.0013510801016019576218, 2e-12);
    // The inverse then resolves to its bisection width (1e-13 relative).
    EXPECT_NEAR(igamc_inv(1e6, 0.5), 999999.66666668641976, 2e-7);
    EXPECT_NEAR(igamc_inv(1e6, 0.01), 1002327.8184027578277, 2e-7);
    EXPECT_NEAR(igamc_inv(1e8, 0.5), 99999999.666666666864, 2e-5);
    EXPECT_NEAR(igamc_inv(1e8, 0.01), 100023264.94936162161, 2e-5);
    EXPECT_NEAR(igamc_inv(1e8, 1e-6), 100047541.44164167783, 2e-5);
}

TEST(igamc, monotone_in_x_and_a_at_large_a)
{
    const double a = 1e6;
    double previous = 1.0;
    for (double x = a - 5000.0; x <= a + 5000.0; x += 250.0) {
        const double q = igamc(a, x);
        EXPECT_LT(q, previous) << "x=" << x;
        EXPECT_GE(q, 0.0);
        previous = q;
    }
    // Q(a, x) increases with a at fixed x.
    previous = 0.0;
    for (double s = 1e6 - 5000.0; s <= 1e6 + 5000.0; s += 250.0) {
        const double q = igamc(s, 1e6);
        EXPECT_GT(q, previous) << "a=" << s;
        previous = q;
    }
}

TEST(igamc_inv, q_near_zero)
{
    for (const double a : {0.5, 1.0, 4.0, 1000.0}) {
        for (const double q : {1e-300, 1e-100, 1e-15}) {
            const double x = igamc_inv(a, q);
            EXPECT_NEAR(igamc(a, x) / q, 1.0, 1e-9) << "a=" << a << " q=" << q;
        }
    }
    // Q(1, x) = exp(-x): the root is -ln q.
    EXPECT_NEAR(igamc_inv(1.0, 1e-300), 300.0 * std::log(10.0), 1e-10);
}

TEST(igamc_inv, q_near_one)
{
    // The roots sit far below 1, so the bisection must stop on a relative
    // width.  With d = 1 - q (exact in double), Q(1, x) = exp(-x) and
    // Q(0.5, x) = erfc(sqrt(x)) put them at -ln q and, since erf(z) ~
    // 2z/sqrt(pi) for tiny z, at pi/4 * d^2.  Q itself is a double next to
    // 1, so it pins x only to about ulp(1) / d ~ 1e-4 relative; a stop on
    // an absolute width of 1e-13 would miss the a = 0.5 root 5e10-fold.
    const double q = 1.0 - 1e-12;
    const double d = 1.0 - q;
    EXPECT_NEAR(igamc_inv(1.0, q) / -std::log(q), 1.0, 1e-3);
    EXPECT_NEAR(igamc_inv(0.5, q) / (M_PI / 4.0 * d * d), 1.0, 1e-3);
    for (const double a : {0.5, 1.0, 4.0, 1000.0}) {
        for (const double q : {0.999, 1.0 - 1e-9, 1.0 - 1e-12}) {
            const double x = igamc_inv(a, q);
            EXPECT_GT(x, 0.0);
            EXPECT_NEAR(igamc(a, x), q, 1e-14) << "a=" << a << " q=" << q;
        }
    }
}

TEST(igamc_inv, monotone_decreasing_in_q)
{
    for (const double a : {0.5, 4.0, 1e6}) {
        double previous = std::numeric_limits<double>::infinity();
        for (const double q : {1e-12, 1e-6, 0.001, 0.01, 0.3, 0.5, 0.9,
                               1.0 - 1e-9}) {
            const double x = igamc_inv(a, q);
            EXPECT_LT(x, previous) << "a=" << a << " q=" << q;
            previous = x;
        }
    }
    // Large a: the median sits at a - 1/3.
    EXPECT_NEAR(igamc_inv(1e6, 0.5), 999999.66666668641976, 1e-5);
}

TEST(chi_squared_critical, matches_tables)
{
    // Chi-squared upper critical values (standard statistical tables).
    EXPECT_NEAR(chi_squared_critical(3, 0.01), 11.3449, 1e-3);
    EXPECT_NEAR(chi_squared_critical(5, 0.01), 15.0863, 1e-3);
    EXPECT_NEAR(chi_squared_critical(8, 0.01), 20.0902, 1e-3);
    EXPECT_NEAR(chi_squared_critical(1, 0.05), 3.8415, 1e-3);
    EXPECT_NEAR(chi_squared_critical(16, 0.001), 39.2524, 1e-3);
}

TEST(chi_squared_critical, monotone_in_alpha_and_dof)
{
    EXPECT_GT(chi_squared_critical(8, 0.001), chi_squared_critical(8, 0.01));
    EXPECT_GT(chi_squared_critical(16, 0.01), chi_squared_critical(8, 0.01));
}

TEST(special_functions, domain_guards)
{
    EXPECT_THROW(igamc(0.0, 1.0), std::domain_error);
    EXPECT_THROW(igamc(1.0, -1.0), std::domain_error);
    EXPECT_THROW(igamc_inv(1.0, 0.0), std::domain_error);
    EXPECT_THROW(igamc_inv(1.0, 1.0), std::domain_error);
    EXPECT_THROW(normal_quantile(0.0), std::domain_error);
}

TEST(special_functions, incomplete_gamma_domain_errors)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double a : {0.0, -0.0, -1e-300, -1.0, -inf}) {
        EXPECT_THROW(igamc(a, 1.0), std::domain_error) << "a=" << a;
        EXPECT_THROW(igam(a, 1.0), std::domain_error) << "a=" << a;
        EXPECT_THROW(igamc_inv(a, 0.5), std::domain_error) << "a=" << a;
    }
    for (const double x : {-1e-300, -1.0, -inf}) {
        EXPECT_THROW(igamc(1.0, x), std::domain_error) << "x=" << x;
        EXPECT_THROW(igam(1.0, x), std::domain_error) << "x=" << x;
    }
    for (const double q : {0.0, 1.0, -0.1, 1.5, nan}) {
        EXPECT_THROW(igamc_inv(1.0, q), std::domain_error) << "q=" << q;
        EXPECT_THROW(chi_squared_critical(2.0, q), std::domain_error)
            << "alpha=" << q;
    }
    EXPECT_THROW(chi_squared_critical(0.0, 0.01), std::domain_error);
}

} // namespace
