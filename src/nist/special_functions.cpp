#include "nist/special_functions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace otf::nist {

double erfc(double x)
{
    return std::erfc(x);
}

double normal_cdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

namespace {

// Wichura AS241 (PPND16): quantile of the standard normal distribution.
double as241(double p)
{
    const double q = p - 0.5;
    if (std::fabs(q) <= 0.425) {
        const double r = 0.180625 - q * q;
        const double num = (((((((2.5090809287301226727e3 * r
            + 3.3430575583588128105e4) * r + 6.7265770927008700853e4) * r
            + 4.5921953931549871457e4) * r + 1.3731693765509461125e4) * r
            + 1.9715909503065514427e3) * r + 1.3314166789178437745e2) * r
            + 3.3871328727963666080e0);
        const double den = (((((((5.2264952788528545610e3 * r
            + 2.8729085735721942674e4) * r + 3.9307895800092710610e4) * r
            + 2.1213794301586595867e4) * r + 5.3941960214247511077e3) * r
            + 6.8718700749205790830e2) * r + 4.2313330701600911252e1) * r
            + 1.0);
        return q * num / den;
    }
    double r = (q < 0.0) ? p : 1.0 - p;
    r = std::sqrt(-std::log(r));
    double value;
    if (r <= 5.0) {
        r -= 1.6;
        const double num = (((((((7.74545014278341407640e-4 * r
            + 2.27238449892691845833e-2) * r + 2.41780725177450611770e-1) * r
            + 1.27045825245236838258e0) * r + 3.64784832476320460504e0) * r
            + 5.76949722146069140550e0) * r + 4.63033784615654529590e0) * r
            + 1.42343711074968357734e0);
        const double den = (((((((1.05075007164441684324e-9 * r
            + 5.47593808499534494600e-4) * r + 1.51986665636164571966e-2) * r
            + 1.48103976427480074590e-1) * r + 6.89767334985100004550e-1) * r
            + 1.67638483018380384940e0) * r + 2.05319162663775882187e0) * r
            + 1.0);
        value = num / den;
    } else {
        r -= 5.0;
        const double num = (((((((2.01033439929228813265e-7 * r
            + 2.71155556874348757815e-5) * r + 1.24266094738807843860e-3) * r
            + 2.65321895265761230930e-2) * r + 2.96560571828504891230e-1) * r
            + 1.78482653991729133580e0) * r + 5.46378491116411436990e0) * r
            + 6.65790464350110377720e0);
        const double den = (((((((2.04426310338993978564e-15 * r
            + 1.42151175831644588870e-7) * r + 1.84631831751005468180e-5) * r
            + 7.86869131145613259100e-4) * r + 1.48753612908506148525e-2) * r
            + 1.36929880922735805310e-1) * r + 5.99832206555887937690e-1) * r
            + 1.0);
        value = num / den;
    }
    return (q < 0.0) ? -value : value;
}

} // namespace

double normal_quantile(double p)
{
    if (!(p > 0.0 && p < 1.0)) {
        throw std::domain_error("normal_quantile: p must be in (0, 1)");
    }
    double x = as241(p);
    // One Halley refinement step squeezes the approximation to full double
    // precision: f(x) = Phi(x) - p, f' = phi(x), f'' = -x * phi(x).
    const double phi = std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
    if (phi > 0.0) {
        const double err = normal_cdf(x) - p;
        const double u = err / phi;
        x -= u / (1.0 + 0.5 * x * u);
    }
    return x;
}

double erfc_inv(double p)
{
    if (!(p > 0.0 && p < 2.0)) {
        throw std::domain_error("erfc_inv: p must be in (0, 2)");
    }
    // erfc(x) = 2 * Phi(-x * sqrt(2))  =>  x = -Phi^-1(p / 2) / sqrt(2).
    return -normal_quantile(p / 2.0) / std::sqrt(2.0);
}

namespace {

constexpr double epsilon = 1e-15;
constexpr double tiny = std::numeric_limits<double>::min() / epsilon;

// Both expansions below need O(sqrt(a)) terms when x is near a (the series
// terms shrink like exp(-n^2 / 2a)), so a fixed cap truncates them for large
// a.  10 sqrt(a) terms reach epsilon; the cap bounds the work at a ~ 1e12.
long max_iterations(double a)
{
    return 500 + static_cast<long>(10.0 * std::sqrt(std::min(a, 1e12)));
}

// Lower incomplete gamma by power series: P(a, x) * Gamma(a) * e^x * x^-a.
double igam_series(double a, double x)
{
    double sum = 1.0 / a;
    double term = sum;
    const long limit = max_iterations(a);
    for (long n = 1; n < limit; ++n) {
        term *= x / (a + n);
        sum += term;
        if (std::fabs(term) < std::fabs(sum) * epsilon) {
            break;
        }
    }
    return sum;
}

// Upper incomplete gamma by modified Lentz continued fraction:
// Q(a, x) = e^{-x} x^a / Gamma(a) * CF.
double igamc_continued_fraction(double a, double x)
{
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    const long limit = max_iterations(a);
    for (long i = 1; i < limit; ++i) {
        const double an = -static_cast<double>(i) * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny) {
            d = tiny;
        }
        c = b + an / c;
        if (std::fabs(c) < tiny) {
            c = tiny;
        }
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < epsilon) {
            break;
        }
    }
    return h;
}

// log(x^a e^-x / Gamma(a)), the prefix both expansions scale by.  The
// direct form a ln x - x - lnGamma(a) subtracts terms of size a ln a, so
// its absolute error grows like eps a ln a (7e-10 at a = 1e6, 2e-8 at
// a = 1e8).  Stirling's lnGamma(a) = (a - 1/2) ln a - a + ln(2 pi) / 2
// + R(a) cancels the large terms analytically, leaving
//   a log1p((x - a) / a) - (x - a) + ln(a / (2 pi)) / 2 - R(a),
// whose error is eps |x - a|.  From a = 100 the remainder series below
// (through a^-7) is exact to 1e-21.
double log_prefix(double a, double x)
{
    if (a < 100.0) {
        return a * std::log(x) - x - log_gamma(a);
    }
    const double d = x - a;
    const double r = 1.0 / a;
    const double r2 = r * r;
    const double remainder = r
        * (1.0 / 12.0
           - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)));
    return a * std::log1p(d / a) - d + 0.5 * std::log(a / (2.0 * M_PI))
        - remainder;
}

} // namespace

double log_gamma(double x)
{
#if defined(__GLIBC__) || defined(__APPLE__)
    // Reentrant form: the sign lands in a local instead of the shared
    // `signgam` global (all our arguments are positive anyway).
    int sign = 0;
    return ::lgamma_r(x, &sign);
#else
    return std::lgamma(x);
#endif
}

double igam(double a, double x)
{
    if (a <= 0.0 || x < 0.0) {
        throw std::domain_error("igam: requires a > 0 and x >= 0");
    }
    if (x == 0.0) {
        return 0.0;
    }
    const double prefix = std::exp(log_prefix(a, x));
    if (x < a + 1.0) {
        return igam_series(a, x) * prefix;
    }
    return 1.0 - igamc_continued_fraction(a, x) * prefix;
}

double igamc(double a, double x)
{
    if (a <= 0.0 || x < 0.0) {
        throw std::domain_error("igamc: requires a > 0 and x >= 0");
    }
    if (x == 0.0) {
        return 1.0;
    }
    const double prefix = std::exp(log_prefix(a, x));
    if (x < a + 1.0) {
        return 1.0 - igam_series(a, x) * prefix;
    }
    return igamc_continued_fraction(a, x) * prefix;
}

double igamc_inv(double a, double q)
{
    if (!(q > 0.0 && q < 1.0)) {
        throw std::domain_error("igamc_inv: q must be in (0, 1)");
    }
    // Bracket the root.  Q(a, x) is strictly decreasing from 1 to 0.
    double lo = 0.0;
    double hi = a + 1.0;
    while (igamc(a, hi) > q) {
        hi *= 2.0;
        if (hi > 1e12) {
            throw std::runtime_error("igamc_inv: failed to bracket root");
        }
    }
    // Bisection to near-convergence, robust for all parameter ranges.
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (igamc(a, mid) > q) {
            lo = mid;
        } else {
            hi = mid;
        }
        // Relative width, so roots far below 1 (q near 1) resolve too.
        if (hi - lo < 1e-13 * hi) {
            break;
        }
    }
    return 0.5 * (lo + hi);
}

double chi_squared_critical(double dof, double alpha)
{
    // P[X >= x] = igamc(dof / 2, x / 2) = alpha.
    return 2.0 * igamc_inv(dof / 2.0, alpha);
}

} // namespace otf::nist
