#include "nist/fft.hpp"

#include <cmath>
#include <stdexcept>

namespace otf::nist {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

} // namespace

void fft_radix2(std::vector<std::complex<double>>& data)
{
    const std::size_t n = data.size();
    if (!is_power_of_two(n)) {
        throw std::invalid_argument("fft_radix2: size must be a power of 2");
    }
    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) {
            j ^= bit;
        }
        j ^= bit;
        if (i < j) {
            std::swap(data[i], data[j]);
        }
    }
    // Butterflies, in explicit real arithmetic: std::complex's operator*
    // adds a NaN test and a guarded __muldc3 recovery call to every
    // multiply, which doubles the transform time.  For finite inputs the
    // products below are the same operations in the same order, so unless
    // the compiler contracts them into FMAs (-march with FMA) the result is
    // bit-identical to the operator form.
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const double angle = -2.0 * M_PI / static_cast<double>(len);
        const double step_re = std::cos(angle);
        const double step_im = std::sin(angle);
        for (std::size_t i = 0; i < n; i += len) {
            double w_re = 1.0;
            double w_im = 0.0;
            for (std::size_t k = 0; k < half; ++k) {
                std::complex<double>& top = data[i + k];
                std::complex<double>& bottom = data[i + k + half];
                const double b_re = bottom.real();
                const double b_im = bottom.imag();
                const double v_re = b_re * w_re - b_im * w_im;
                const double v_im = b_re * w_im + b_im * w_re;
                const double u_re = top.real();
                const double u_im = top.imag();
                top = {u_re + v_re, u_im + v_im};
                bottom = {u_re - v_re, u_im - v_im};
                const double next_re = w_re * step_re - w_im * step_im;
                w_im = w_re * step_im + w_im * step_re;
                w_re = next_re;
            }
        }
    }
}

std::vector<double> dft_magnitudes(const std::vector<double>& input)
{
    const std::size_t n = input.size();
    const std::size_t half = n / 2;
    std::vector<double> magnitudes(half, 0.0);
    if (n == 0) {
        return magnitudes;
    }
    if (is_power_of_two(n)) {
        std::vector<std::complex<double>> data(n);
        for (std::size_t i = 0; i < n; ++i) {
            data[i] = {input[i], 0.0};
        }
        fft_radix2(data);
        for (std::size_t j = 0; j < half; ++j) {
            magnitudes[j] = std::abs(data[j]);
        }
        return magnitudes;
    }
    // Bluestein's chirp-z transform.  With w_j = exp(-i*pi*j^2/n),
    // jk = (j^2 + k^2 - (k-j)^2) / 2 turns the DFT into
    //   X_k = w_k * sum_j (x_j w_j) conj(w_{k-j}),
    // a convolution, evaluated as a zero-padded power-of-two circular one
    // of size m >= 2n-1.  |w_k| = 1, so |X_k| = |conv_k|.  Reducing j^2
    // mod 2n first keeps every chirp angle within one turn, so it stays
    // accurate at any length.
    std::size_t m = 1;
    while (m < 2 * n - 1) {
        m <<= 1;
    }
    std::vector<std::complex<double>> a(m);
    std::vector<std::complex<double>> b(m);
    std::size_t square = 0; // j^2 mod 2n, stepped as (j+1)^2 = j^2 + 2j + 1
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = -M_PI * static_cast<double>(square)
            / static_cast<double>(n);
        const double c = std::cos(angle);
        const double s = std::sin(angle);
        a[j] = {input[j] * c, input[j] * s};
        b[j] = {c, -s};
        square = (square + 2 * j + 1) % (2 * n);
    }
    for (std::size_t j = 1; j < n; ++j) {
        b[m - j] = b[j];
    }
    fft_radix2(a);
    fft_radix2(b);
    // Inverse transform by conj -> forward FFT -> conj, scaled by 1/m.  The
    // outer conj leaves the magnitude alone, so it is skipped.
    for (std::size_t k = 0; k < m; ++k) {
        const double a_re = a[k].real();
        const double a_im = a[k].imag();
        const double b_re = b[k].real();
        const double b_im = b[k].imag();
        a[k] = {a_re * b_re - a_im * b_im, -(a_re * b_im + a_im * b_re)};
    }
    fft_radix2(a);
    const double scale = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < half; ++k) {
        magnitudes[k] = std::abs(a[k]) * scale;
    }
    return magnitudes;
}

} // namespace otf::nist
