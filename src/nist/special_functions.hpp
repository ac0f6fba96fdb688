// Special functions needed by the NIST SP 800-22 statistical tests.
//
// The reference implementations compute P-values with the complementary
// error function and the regularized upper incomplete gamma function.  The
// embedded software side of the platform deliberately avoids these (the
// paper precomputes inverse critical values instead); this module provides
// both the forward functions for the reference tests and the inverse
// functions used once, offline, to generate the precomputed constants.
#pragma once

namespace otf::nist {

/// Complementary error function (thin wrapper, kept for a uniform namespace).
double erfc(double x);

/// Inverse of erfc: erfc(erfc_inv(p)) == p for p in (0, 2).
double erfc_inv(double p);

/// Standard normal cumulative distribution function.
double normal_cdf(double x);

/// Quantile (inverse CDF) of the standard normal, p in (0, 1).
/// Wichura's AS241 rational approximation refined by one Halley step.
double normal_quantile(double p);

/// Thread-safe log-gamma: ln |Γ(x)|.  std::lgamma writes the process-wide
/// `signgam` global on every call, which is a data race when fleet workers
/// evaluate P-values concurrently; this wrapper uses the reentrant
/// lgamma_r where available and never touches the global.
double log_gamma(double x);

/// Regularized upper incomplete gamma function Q(a, x) = Γ(a, x) / Γ(a),
/// for a > 0, x >= 0.  Series expansion for x < a + 1, Lentz continued
/// fraction otherwise, each run to convergence (O(sqrt(a)) terms near
/// x = a).  Absolute error is about 1e-15 for the small a of the tests; the
/// a*ln(x) - x - lnΓ(a) prefix cancels as a grows (~5e-12 at a = 1e4,
/// ~1e-9 at a = 1e6).  The series branch returns 1 - P, so a tiny Q there
/// is accurate in absolute terms only.
double igamc(double a, double x);

/// Regularized lower incomplete gamma function P(a, x) = 1 - Q(a, x).
double igam(double a, double x);

/// Inverse of igamc in x: returns x such that igamc(a, x) == q, q in (0, 1).
/// Bracketing bisection to a relative width of 1e-13, so roots far below 1
/// (q near 1) resolve as well as large ones; used to turn a level of
/// significance into a chi-squared critical value.
/// \throws std::domain_error unless 0 < q < 1 (NaN included) and a > 0
double igamc_inv(double a, double q);

/// Upper critical value of the chi-squared distribution with `dof` degrees
/// of freedom at tail probability `alpha`:  P[X >= value] == alpha.
double chi_squared_critical(double dof, double alpha);

} // namespace otf::nist
