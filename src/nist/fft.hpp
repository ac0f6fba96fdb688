// Discrete Fourier transform for the spectral test.
//
// Power-of-two lengths (every native window of the platform) go through an
// iterative radix-2 Cooley-Tukey FFT.  Every other length (the NIST worked
// examples, the supervisor's evidence of 3, 5, 6 or 7 windows) goes through
// Bluestein's chirp-z transform: one zero-padded power-of-two circular
// convolution built on the same radix-2 FFT.  Both are O(n log n); there is
// no O(n^2) path.  Only the magnitudes of the first n/2 bins are needed by
// the test.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace otf::nist {

/// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<std::complex<double>>& data);

/// Magnitudes of the first floor(n/2) DFT bins of a real input.
std::vector<double> dft_magnitudes(const std::vector<double>& input);

} // namespace otf::nist
