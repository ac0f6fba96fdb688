#include "nist/fft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Bit i of the packed words as +1 / -1.  Arithmetic, not
/// `bit ? 1.0 : -1.0`: on random bits that branch mispredicts half the
/// time and costs more than the transform's fill.
double sign(const std::uint64_t* words, std::size_t i)
{
    return 2.0 * static_cast<double>((words[i / 64] >> (i % 64)) & 1u) - 1.0;
}

/// Step r from the bit reversal of i to that of i + 1 (n a power of two):
/// a counter that increments from the top bit down.
std::size_t next_bit_reversed(std::size_t r, std::size_t n)
{
    std::size_t bit = n >> 1;
    for (; r & bit; bit >>= 1) {
        r ^= bit;
    }
    return r ^ bit;
}

/// The Cooley-Tukey stages over data already in bit-reversed order.  Each
/// stage's twiddles w_k = w_{k-1} * exp(-2 pi i / len) are stepped once
/// into a table shared by all of the stage's blocks, rather than re-stepped
/// per block: the values are the same, and the butterflies no longer wait
/// on the recurrence.  The table is transient (n/2 entries at most).
///
/// The butterflies use explicit real arithmetic: std::complex's operator*
/// adds a NaN test and a guarded __muldc3 recovery call to every multiply,
/// which doubles the transform time.  For finite inputs the products below
/// are the same operations in the same order, so unless the compiler
/// contracts them into FMAs (-march with FMA) the result is bit-identical
/// to the operator form.
void butterflies(std::vector<std::complex<double>>& data)
{
    const std::size_t n = data.size();
    std::vector<std::complex<double>> twiddles(n / 2);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const double angle = -2.0 * M_PI / static_cast<double>(len);
        const double step_re = std::cos(angle);
        const double step_im = std::sin(angle);
        double w_re = 1.0;
        double w_im = 0.0;
        for (std::size_t k = 0; k < half; ++k) {
            twiddles[k] = {w_re, w_im};
            const double next_re = w_re * step_re - w_im * step_im;
            w_im = w_re * step_im + w_im * step_re;
            w_re = next_re;
        }
        for (std::size_t i = 0; i < n; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const double t_re = twiddles[k].real();
                const double t_im = twiddles[k].imag();
                std::complex<double>& top = data[i + k];
                std::complex<double>& bottom = data[i + k + half];
                const double b_re = bottom.real();
                const double b_im = bottom.imag();
                const double v_re = b_re * t_re - b_im * t_im;
                const double v_im = b_re * t_im + b_im * t_re;
                const double u_re = top.real();
                const double u_im = top.imag();
                top = {u_re + v_re, u_im + v_im};
                bottom = {u_re - v_re, u_im - v_im};
            }
        }
    }
}

} // namespace

void fft_radix2(std::vector<std::complex<double>>& data)
{
    const std::size_t n = data.size();
    if (!is_power_of_two(n)) {
        throw std::invalid_argument("fft_radix2: size must be a power of 2");
    }
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        j = next_bit_reversed(j, n);
        if (i < j) {
            std::swap(data[i], data[j]);
        }
    }
    butterflies(data);
}

namespace {

/// Split pass of the real-input transform: the twiddle exp(-2 pi i k / n)
/// advances by one complex multiply per bin pair (k, n/2 - k) and is
/// re-seeded with an exact cos/sin every this many values of k, which
/// bounds the recurrence's drift.
constexpr std::size_t twiddle_reseed_bins = 256;

/// Real-input DFT at a power-of-two n >= 2: one N = n/2-point complex FFT
/// of z_k = x_2k + i x_2k+1, then per bin k (with Z_N = Z_0)
///   E_k = (Z_k + conj Z_{N-k}) / 2,   O_k = (Z_k - conj Z_{N-k}) / 2i,
///   X_k = E_k + W^k O_k,  W = exp(-2 pi i / n).
/// Since E_{N-k} = conj E_k, O_{N-k} = conj O_k and W^{N-k} = -conj W^k,
/// X_{N-k} = conj(E_k - W^k O_k): one twiddle and one pair of loads serve
/// bins k and N-k.  Each magnitude goes to sink(bin, magnitude).
template <class Sink>
void real_radix2_magnitudes(const bit_sequence& bits, Sink&& sink)
{
    const std::size_t half = bits.size() / 2;
    const std::uint64_t* const words = bits.words().data();
    // Packed straight into bit-reversed order, so the transform skips its
    // permutation pass.
    std::vector<std::complex<double>> z(half);
    for (std::size_t k = 0, r = 0; k < half; ++k) {
        z[k] = {sign(words, 2 * r), sign(words, 2 * r + 1)};
        r = next_bit_reversed(r, half);
    }
    butterflies(z);
    const double step_angle =
        -2.0 * M_PI / static_cast<double>(bits.size());
    const double step_re = std::cos(step_angle);
    const double step_im = std::sin(step_angle);
    double w_re = 1.0;
    double w_im = 0.0;
    for (std::size_t k = 0; k <= half / 2; ++k) {
        if (k % twiddle_reseed_bins == 0) {
            const double angle = step_angle * static_cast<double>(k);
            w_re = std::cos(angle);
            w_im = std::sin(angle);
        }
        const std::size_t mirror = k == 0 ? 0 : half - k;
        const std::complex<double> zk = z[k];
        const std::complex<double> zr = z[mirror];
        const double e_re = 0.5 * (zk.real() + zr.real());
        const double e_im = 0.5 * (zk.imag() - zr.imag());
        const double o_re = 0.5 * (zk.imag() + zr.imag());
        const double o_im = 0.5 * (zr.real() - zk.real());
        const double wo_re = w_re * o_re - w_im * o_im;
        const double wo_im = w_re * o_im + w_im * o_re;
        const double re = e_re + wo_re;
        const double im = e_im + wo_im;
        sink(k, std::sqrt(re * re + im * im));
        if (mirror > k) {
            const double mirror_re = e_re - wo_re;
            const double mirror_im = e_im - wo_im;
            sink(mirror,
                 std::sqrt(mirror_re * mirror_re + mirror_im * mirror_im));
        }
        const double next_re = w_re * step_re - w_im * step_im;
        w_im = w_re * step_im + w_im * step_re;
        w_re = next_re;
    }
}

/// Bluestein's chirp-z transform.  With w_j = exp(-i*pi*j^2/n),
/// jk = (j^2 + k^2 - (k-j)^2) / 2 turns the DFT into
///   X_k = w_k * sum_j (x_j w_j) conj(w_{k-j}),
/// a convolution, evaluated as a zero-padded power-of-two circular one of
/// size m >= 2n-1.  |w_k| = 1, so |X_k| = |conv_k|.  The plan is the part
/// that does not depend on x: the chirp w_j and the transformed kernel.
struct bluestein_plan {
    std::size_t n = 0;
    std::size_t m = 0;
    std::vector<std::complex<double>> chirp;  ///< w_j, j < n
    std::vector<std::complex<double>> kernel; ///< FFT of wrapped conj(w)
};

bluestein_plan make_bluestein_plan(std::size_t n)
{
    bluestein_plan plan;
    plan.n = n;
    plan.m = 1;
    while (plan.m < 2 * n - 1) {
        plan.m <<= 1;
    }
    plan.chirp.resize(n);
    plan.kernel.assign(plan.m, {0.0, 0.0});
    // Reducing j^2 mod 2n first keeps every chirp angle within one turn,
    // so it stays accurate at any length.
    std::size_t square = 0; // j^2 mod 2n, stepped as (j+1)^2 = j^2 + 2j + 1
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = -M_PI * static_cast<double>(square)
            / static_cast<double>(n);
        const double c = std::cos(angle);
        const double s = std::sin(angle);
        plan.chirp[j] = {c, s};
        plan.kernel[j] = {c, -s};
        square = (square + 2 * j + 1) % (2 * n);
    }
    for (std::size_t j = 1; j < n; ++j) {
        plan.kernel[plan.m - j] = plan.kernel[j];
    }
    fft_radix2(plan.kernel);
    return plan;
}

/// Plans cached per thread: at most this many lengths, most recent first,
/// and only lengths whose convolution fits in 2^16 points (1 MB of kernel),
/// so the cache stays small whatever the lengths seen.
constexpr std::size_t plan_cache_lengths = 8;
constexpr std::size_t plan_cache_max_points = std::size_t{1} << 16;

/// The plan for length n: from this thread's cache, or built into
/// `uncached` when its convolution is too large to keep.  The reference is
/// valid until this thread's next call.
const bluestein_plan& bluestein_plan_for(std::size_t n,
                                         bluestein_plan& uncached)
{
    thread_local std::vector<bluestein_plan> cache;
    for (auto it = cache.begin(); it != cache.end(); ++it) {
        if (it->n == n) {
            std::rotate(cache.begin(), it, it + 1);
            return cache.front();
        }
    }
    uncached = make_bluestein_plan(n);
    if (uncached.m > plan_cache_max_points) {
        return uncached;
    }
    if (cache.size() == plan_cache_lengths) {
        cache.pop_back();
    }
    cache.insert(cache.begin(), std::move(uncached));
    return cache.front();
}

template <class Sink>
void bluestein_magnitudes(const bit_sequence& bits, Sink&& sink)
{
    const std::size_t n = bits.size();
    const std::uint64_t* const words = bits.words().data();
    bluestein_plan uncached;
    const bluestein_plan& plan = bluestein_plan_for(n, uncached);
    const std::size_t m = plan.m;
    std::vector<std::complex<double>> a(m);
    for (std::size_t j = 0; j < n; ++j) {
        const double xj = sign(words, j);
        a[j] = {xj * plan.chirp[j].real(), xj * plan.chirp[j].imag()};
    }
    fft_radix2(a);
    // Inverse transform by conj -> forward FFT -> conj, scaled by 1/m.  The
    // outer conj leaves the magnitude alone, so it is skipped.
    for (std::size_t k = 0; k < m; ++k) {
        const double a_re = a[k].real();
        const double a_im = a[k].imag();
        const double b_re = plan.kernel[k].real();
        const double b_im = plan.kernel[k].imag();
        a[k] = {a_re * b_re - a_im * b_im, -(a_re * b_im + a_im * b_re)};
    }
    fft_radix2(a);
    const double scale = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < n / 2; ++k) {
        sink(k, std::abs(a[k]) * scale);
    }
}

/// The one transform behind both entry points.
template <class Sink>
void for_each_magnitude(const bit_sequence& bits, Sink&& sink)
{
    if (bits.size() < 2) {
        return;
    }
    if (is_power_of_two(bits.size())) {
        real_radix2_magnitudes(bits, sink);
    } else {
        bluestein_magnitudes(bits, sink);
    }
}

} // namespace

std::vector<double> dft_magnitudes(const bit_sequence& bits)
{
    std::vector<double> magnitudes(bits.size() / 2);
    for_each_magnitude(bits, [&](std::size_t k, double magnitude) {
        magnitudes[k] = magnitude;
    });
    return magnitudes;
}

std::size_t dft_count_below(const bit_sequence& bits, double threshold)
{
    std::size_t below = 0;
    for_each_magnitude(bits, [&](std::size_t, double magnitude) {
        below += magnitude < threshold ? 1 : 0;
    });
    return below;
}

} // namespace otf::nist
