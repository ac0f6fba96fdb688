// Discrete Fourier transform for the spectral test.
//
// The input is the +-1 signal x of a bit sequence.  Power-of-two lengths
// (every native window of the platform) take the real-input path: x is
// packed, in bit-reversed order, as n/2 complex values z_k = x_2k + i x_2k+1,
// one n/2-point iterative radix-2 Cooley-Tukey FFT transforms them, and one
// split pass (twiddle advanced by recurrence, re-seeded exactly every few
// hundred bins) recovers the n/2 bins of the real DFT.  It holds one
// n/2-complex buffer plus a transient per-stage twiddle table and caches
// nothing.
//
// Every other length (the NIST worked examples, the supervisor's evidence
// of 3, 5, 6 or 7 windows) goes through Bluestein's chirp-z transform: one
// zero-padded power-of-two circular convolution built on the same radix-2
// FFT.  Each thread keeps a small plan cache (the chirp and the
// transformed convolution kernel) for up to 8 recent lengths whose
// convolution size is at most 2^16, so repeated confirmations at the same
// length pay for one input transform and one inverse transform only; a
// cached plan is built by the same operations as a fresh one, so results
// are bit-identical either way.
//
// Both paths are O(n log n); there is no O(n^2) path.  Only the magnitudes
// of the first n/2 bins are needed by the test.
#pragma once

#include "base/bits.hpp"

#include <complex>
#include <cstddef>
#include <vector>

namespace otf::nist {

/// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<std::complex<double>>& data);

/// Magnitudes of the first floor(n/2) DFT bins of the +-1 signal of a bit
/// sequence (1 -> +1, 0 -> -1), read straight from the packed words.
std::vector<double> dft_magnitudes(const bit_sequence& bits);

/// How many of those magnitudes are below `threshold`: the same transform
/// as dft_magnitudes, counted as it goes, so the spectral test never
/// holds the n/2 magnitudes.
std::size_t dft_count_below(const bit_sequence& bits, double threshold);

} // namespace otf::nist
