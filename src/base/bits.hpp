// Bit-sequence container and span-kernel primitives shared by every layer
// of the platform.
//
// The TRNG delivers one bit per clock; the hardware models consume bits one
// at a time; the reference NIST implementations and the golden models in the
// test suite work on whole sequences.  `bit_sequence` is the common currency:
// a dynamic array of bits stored as the same LSB-first packed 64-bit words
// the span lane, the evidence ring and the WAL use, with the few bulk
// operations the statistical tests need (population count, slicing,
// parsing from ASCII) and a read-only view of the words for the offline
// battery's word kernels.
//
// `otf::bits` holds the portable kernel primitives behind the span ingestion
// lane (engine::consume_span) and the bit-sliced fleet lane
// (hw::sliced_block): span and bit-range popcount, transition counting,
// the SWAR +/-1 walk summary behind the cusum kernel, and the 64x64
// bit-matrix transpose.  Every primitive is runtime-dispatched through a process-wide
// kernel_variant so the differential test harness can pin each variant
// against the per-bit oracle and the benches can report a per-variant axis.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace otf {

namespace bits {

/// \brief Which implementation the span/sliced kernel primitives use.
/// All variants are register-exact by contract (tests/test_kernel_oracle
/// is the fuzz oracle); they differ only in speed.
enum class kernel_variant {
    reference, ///< naive per-bit loops -- the in-module oracle
    portable,  ///< SWAR / std::popcount batching, plain C++
    simd,      ///< AVX2 kernels when compiled in, else == portable
};

/// True when the translation unit was built with AVX2 enabled
/// (e.g. the -march=x86-64-v3 CI leg); the `simd` variant silently
/// behaves like `portable` otherwise.
constexpr bool simd_compiled()
{
#if defined(__AVX2__)
    return true;
#else
    return false;
#endif
}

namespace detail {
inline std::atomic<kernel_variant> g_kernel_variant{kernel_variant::simd};
} // namespace detail

inline kernel_variant active_kernel_variant()
{
    return detail::g_kernel_variant.load(std::memory_order_relaxed);
}

/// \brief Select the process-wide kernel variant (benches sweep this as a
/// measurement axis; tests pin each variant against the per-bit oracle).
inline void set_kernel_variant(kernel_variant v)
{
    detail::g_kernel_variant.store(v, std::memory_order_relaxed);
}

inline std::uint64_t low_mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << nbits) - 1;
}

/// \brief The 64 bits that start at bit offset `pos` of a packed span
/// (LSB-first: bit k of the result is bit pos + k of the span), zero past
/// the span's last word.
inline std::uint64_t read64(std::span<const std::uint64_t> words,
                            std::size_t pos)
{
    const std::size_t w = pos / 64;
    const unsigned off = static_cast<unsigned>(pos % 64);
    const std::uint64_t lo = w < words.size() ? words[w] >> off : 0;
    const std::uint64_t hi = off != 0 && w + 1 < words.size()
        ? words[w + 1] << (64 - off)
        : 0;
    return lo | hi;
}

/// \brief Bit reversal of a 64-bit word (bit k moves to bit 63 - k).
inline std::uint64_t reverse64(std::uint64_t x)
{
    x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
    x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
    x = ((x >> 4) & 0x0f0f0f0f0f0f0f0full) | ((x & 0x0f0f0f0f0f0f0f0full) << 4);
    return __builtin_bswap64(x);
}

/// \brief OR the low `nbits` bits of `value` into a packed span at bit
/// offset `pos` (LSB-first words; nbits in [1, 64], may straddle one word
/// boundary).  The generation lane's span writer: source models emit whole
/// dwell/run spans at arbitrary bit offsets with two ORs instead of a
/// per-bit loop.
inline void or_bits(std::uint64_t* words, std::uint64_t pos,
                    std::uint64_t value, unsigned nbits)
{
    const std::size_t w = static_cast<std::size_t>(pos / 64);
    const unsigned off = static_cast<unsigned>(pos % 64);
    value &= low_mask(nbits);
    words[w] |= value << off;
    if (off + nbits > 64) {
        words[w + 1] |= value >> (64 - off);
    }
}

/// \brief Set `nbits` consecutive bits to one starting at bit offset `pos`
/// (partial head word, full middle words, partial tail word).
inline void set_bit_run(std::uint64_t* words, std::uint64_t pos,
                        std::uint64_t nbits)
{
    std::size_t w = static_cast<std::size_t>(pos / 64);
    const unsigned off = static_cast<unsigned>(pos % 64);
    if (off != 0) {
        const unsigned head = off + nbits >= 64
            ? 64 - off
            : static_cast<unsigned>(nbits);
        words[w] |= low_mask(head) << off;
        nbits -= head;
        ++w;
    }
    for (; nbits >= 64; nbits -= 64) {
        words[w++] = ~std::uint64_t{0};
    }
    if (nbits != 0) {
        words[w] |= low_mask(static_cast<unsigned>(nbits));
    }
}

/// \brief Population count of the low `k` bits of `w` (k in [0, 64]).
inline unsigned prefix_popcount(std::uint64_t w, unsigned k)
{
    if (active_kernel_variant() == kernel_variant::reference) {
        unsigned total = 0;
        for (unsigned i = 0; i < k; ++i) {
            total += static_cast<unsigned>((w >> i) & 1u);
        }
        return total;
    }
    return static_cast<unsigned>(std::popcount(w & low_mask(k)));
}

/// \brief Ones in the first `nbits` bits of a packed span (LSB-first words,
/// ragged lengths allowed; bits past `nbits` in the tail word are masked).
inline std::uint64_t span_popcount(const std::uint64_t* words,
                                   std::size_t nbits)
{
    const std::size_t nwords = nbits / 64;
    const unsigned tail = static_cast<unsigned>(nbits % 64);
    const kernel_variant variant = active_kernel_variant();
    std::uint64_t total = 0;
    if (variant == kernel_variant::reference) {
        for (std::size_t i = 0; i < nbits; ++i) {
            total += (words[i / 64] >> (i % 64)) & 1u;
        }
        return total;
    }
    std::size_t j = 0;
#if defined(__AVX2__)
    if (variant == kernel_variant::simd && nwords >= 4) {
        // Nibble-LUT popcount (no AVX-512 vpopcnt needed): per-byte counts
        // via pshufb, folded with sad against zero.
        const __m256i lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
        const __m256i nibble = _mm256_set1_epi8(0x0f);
        __m256i acc = _mm256_setzero_si256();
        for (; j + 4 <= nwords; j += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(words + j));
            const __m256i lo = _mm256_shuffle_epi8(
                lut, _mm256_and_si256(v, nibble));
            const __m256i hi = _mm256_shuffle_epi8(
                lut, _mm256_and_si256(_mm256_srli_epi32(v, 4), nibble));
            acc = _mm256_add_epi64(
                acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi),
                                     _mm256_setzero_si256()));
        }
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
        total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
#endif
    for (; j + 4 <= nwords; j += 4) {
        total += static_cast<std::uint64_t>(std::popcount(words[j]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 1]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 2]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 3]));
    }
    for (; j < nwords; ++j) {
        total += static_cast<std::uint64_t>(std::popcount(words[j]));
    }
    if (tail != 0) {
        total += static_cast<std::uint64_t>(
            std::popcount(words[nwords] & low_mask(tail)));
    }
    return total;
}

/// \brief Ones in bits [first, first + nbits) of a packed span (nbits
/// >= 1).  A range inside one word is one masked popcount; a word-aligned
/// `first` goes straight to span_popcount; otherwise a partial head word
/// precedes the span_popcount.  Block-bounded span kernels thus use one
/// segment loop for aligned whole-word blocks and for sub-word blocks at
/// any offset.
inline std::uint64_t range_popcount(const std::uint64_t* words,
                                    std::size_t first, std::size_t nbits)
{
    words += first / 64;
    const unsigned off = static_cast<unsigned>(first % 64);
    if (off + nbits <= 64) {
        return prefix_popcount(words[0] >> off, static_cast<unsigned>(nbits));
    }
    if (off == 0) {
        return span_popcount(words, nbits);
    }
    return prefix_popcount(words[0] >> off, 64 - off)
        + span_popcount(words + 1, nbits - (64 - off));
}

/// \brief Adjacent-bit transitions inside a full-word span: transitions
/// within each word plus the seams between consecutive words (the runs
/// test's shifted-XOR popcount, batched over the whole span).
inline std::uint64_t span_transitions(const std::uint64_t* words,
                                      std::size_t nwords)
{
    if (nwords == 0) {
        return 0;
    }
    if (active_kernel_variant() == kernel_variant::reference) {
        std::uint64_t total = 0;
        for (std::size_t i = 1; i < nwords * 64; ++i) {
            const unsigned a =
                static_cast<unsigned>((words[i / 64] >> (i % 64)) & 1u);
            const unsigned b = static_cast<unsigned>(
                (words[(i - 1) / 64] >> ((i - 1) % 64)) & 1u);
            total += a ^ b;
        }
        return total;
    }
    constexpr std::uint64_t pair_mask = ~std::uint64_t{0} >> 1;
    std::uint64_t total = 0;
    std::uint64_t prev_msb = words[0] >> 63;
    total += static_cast<std::uint64_t>(
        std::popcount((words[0] ^ (words[0] >> 1)) & pair_mask));
    for (std::size_t j = 1; j < nwords; ++j) {
        const std::uint64_t x = words[j];
        total += static_cast<std::uint64_t>(
            std::popcount((x ^ (x >> 1)) & pair_mask));
        total += prev_msb ^ (x & 1u);
        prev_msb = x >> 63;
    }
    return total;
}

/// Summary of the +/-1 random walk over one word's 64 bits (bit = 1 steps
/// up, 0 down; bits taken LSB-first): total displacement and the extreme
/// prefix sums after 1..64 steps.  Combining summaries left to right
/// reproduces the exact per-bit max/min trajectory -- the cusum span
/// kernel's building block.
struct walk_summary {
    int delta;
    int max_prefix;
    int min_prefix;
};

namespace detail {

/// SWAR byte-lane walk: all 8 bytes of `x` walk their 8 bits in parallel,
/// lanes biased at +8 so every value stays an unsigned byte in [0, 16].
/// The per-byte (delta, max, min) lanes are then folded left to right.
inline walk_summary word_walk_portable(std::uint64_t x)
{
    constexpr std::uint64_t lanes_one = 0x0101010101010101ull;
    constexpr std::uint64_t lanes_msb = 0x8080808080808080ull;
    const std::uint64_t first = (x & lanes_one) << 1; // +-1 as 0 or 2
    std::uint64_t w = lanes_one * 8 + first - lanes_one;
    std::uint64_t mx = w;
    std::uint64_t mn = w;
    for (unsigned k = 1; k < 8; ++k) {
        w += (((x >> k) & lanes_one) << 1);
        w -= lanes_one;
        // Packed unsigned max/min: lane values stay below 0x80, so the
        // borrow of ((a | msb) - b) never leaves its lane and the lane's
        // top bit reads "a >= b"; the 0xff multiply widens it to a mask.
        std::uint64_t t = (w | lanes_msb) - mx;
        std::uint64_t m = ((t & lanes_msb) >> 7) * 0xff;
        mx = (w & m) | (mx & ~m);
        t = (mn | lanes_msb) - w;
        m = ((t & lanes_msb) >> 7) * 0xff;
        mn = (w & m) | (mn & ~m);
    }
    int s = 0;
    int hi = -65;
    int lo = 65;
    for (unsigned j = 0; j < 8; ++j) {
        const int byte_hi = s + static_cast<int>((mx >> (8 * j)) & 0xff) - 8;
        const int byte_lo = s + static_cast<int>((mn >> (8 * j)) & 0xff) - 8;
        hi = byte_hi > hi ? byte_hi : hi;
        lo = byte_lo < lo ? byte_lo : lo;
        s += static_cast<int>((w >> (8 * j)) & 0xff) - 8;
    }
    return {s, hi, lo};
}

inline walk_summary word_walk_reference(std::uint64_t x)
{
    int s = 0;
    int hi = -65;
    int lo = 65;
    for (unsigned i = 0; i < 64; ++i) {
        s += ((x >> i) & 1u) ? 1 : -1;
        hi = s > hi ? s : hi;
        lo = s < lo ? s : lo;
    }
    return {s, hi, lo};
}

} // namespace detail

/// \brief Walk summary of one full 64-bit word.
inline walk_summary word_walk(std::uint64_t x)
{
    if (active_kernel_variant() == kernel_variant::reference) {
        return detail::word_walk_reference(x);
    }
    return detail::word_walk_portable(x);
}

/// \brief Walk summary of a whole full-word span: the per-word summaries
/// (SIMD-friendly, computed four words at a time under AVX2) folded
/// left to right into the exact span trajectory.
inline walk_summary span_walk(const std::uint64_t* words, std::size_t nwords)
{
    walk_summary acc{0, -65, 65};
    const kernel_variant variant = active_kernel_variant();
    std::size_t j = 0;
#if defined(__AVX2__)
    if (variant == kernel_variant::simd) {
        const __m256i lanes_one = _mm256_set1_epi8(1);
        for (; j + 4 <= nwords; j += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(words + j));
            __m256i first = _mm256_and_si256(v, lanes_one);
            first = _mm256_add_epi8(first, first);
            __m256i w = _mm256_add_epi8(
                _mm256_sub_epi8(_mm256_set1_epi8(8), lanes_one), first);
            __m256i mx = w;
            __m256i mn = w;
            for (unsigned k = 1; k < 8; ++k) {
                __m256i b = _mm256_and_si256(_mm256_srli_epi64(v, k),
                                             lanes_one);
                b = _mm256_add_epi8(b, b);
                w = _mm256_sub_epi8(_mm256_add_epi8(w, b), lanes_one);
                mx = _mm256_max_epu8(mx, w);
                mn = _mm256_min_epu8(mn, w);
            }
            alignas(32) std::uint8_t wl[32];
            alignas(32) std::uint8_t mxl[32];
            alignas(32) std::uint8_t mnl[32];
            _mm256_store_si256(reinterpret_cast<__m256i*>(wl), w);
            _mm256_store_si256(reinterpret_cast<__m256i*>(mxl), mx);
            _mm256_store_si256(reinterpret_cast<__m256i*>(mnl), mn);
            for (unsigned lane = 0; lane < 32; ++lane) {
                const int byte_hi = acc.delta + mxl[lane] - 8;
                const int byte_lo = acc.delta + mnl[lane] - 8;
                acc.max_prefix =
                    byte_hi > acc.max_prefix ? byte_hi : acc.max_prefix;
                acc.min_prefix =
                    byte_lo < acc.min_prefix ? byte_lo : acc.min_prefix;
                acc.delta += wl[lane] - 8;
            }
        }
    }
#endif
    for (; j < nwords; ++j) {
        const walk_summary s = variant == kernel_variant::reference
            ? detail::word_walk_reference(words[j])
            : detail::word_walk_portable(words[j]);
        const int hi = acc.delta + s.max_prefix;
        const int lo = acc.delta + s.min_prefix;
        acc.max_prefix = hi > acc.max_prefix ? hi : acc.max_prefix;
        acc.min_prefix = lo < acc.min_prefix ? lo : acc.min_prefix;
        acc.delta += s.delta;
    }
    return acc;
}

/// \brief In-place 64x64 bit-matrix transpose (Hacker's Delight recursive
/// block swap): afterwards bit j of m[i] is the old bit i of m[j].  The
/// bit-sliced fleet lane uses it to turn 64 channel words into 64 time
/// planes (plane t holds bit t of every channel).
inline void transpose_64x64(std::uint64_t m[64])
{
    std::uint64_t mask = 0x00000000ffffffffull;
    for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
        }
    }
}

} // namespace bits

/// \brief A dynamic bit array stored as LSB-first packed 64-bit words: bit
/// i is bit i % 64 of word i / 64, the convention of the span lane, the
/// evidence ring and the WAL.  Bits past size() in the last word are
/// always zero, so the defaulted == compares sequences bit for bit.
class bit_sequence {
public:
    bit_sequence() = default;
    explicit bit_sequence(std::size_t n, bool value = false)
        : words_((n + 63) / 64, value ? ~std::uint64_t{0} : 0), size_(n)
    {
        clear_tail();
    }

    /// Parse from ASCII; accepts '0'/'1' and ignores whitespace.
    static bit_sequence from_string(std::string_view text)
    {
        bit_sequence seq;
        seq.reserve(text.size());
        for (const char c : text) {
            if (c == '0' || c == '1') {
                seq.push_back(c == '1');
            } else if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
                continue;
            } else {
                throw std::invalid_argument(
                    "bit_sequence: invalid character in bit string");
            }
        }
        return seq;
    }

    void push_back(bool bit)
    {
        if (size_ % 64 == 0) {
            words_.push_back(0);
        }
        words_.back() |= static_cast<std::uint64_t>(bit) << (size_ % 64);
        ++size_;
    }
    void reserve(std::size_t n) { words_.reserve((n + 63) / 64); }
    void clear()
    {
        words_.clear();
        size_ = 0;
    }

    bool operator[](std::size_t i) const
    {
        return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
    }
    bool at(std::size_t i) const
    {
        check_index(i);
        return (*this)[i];
    }
    void set(std::size_t i, bool v)
    {
        check_index(i);
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        words_[i / 64] = v ? words_[i / 64] | bit : words_[i / 64] & ~bit;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// The packed words (size() bits, zero past the end): what the word
    /// kernels of the offline battery read.
    std::span<const std::uint64_t> words() const { return words_; }

    /// Number of ones in the whole sequence.
    std::size_t count_ones() const
    {
        std::size_t total = 0;
        for (const std::uint64_t w : words_) {
            total += static_cast<std::size_t>(std::popcount(w));
        }
        return total;
    }

    /// Copy of bits [first, first + length).
    bit_sequence slice(std::size_t first, std::size_t length) const
    {
        if (first > size_ || length > size_ - first) {
            throw std::out_of_range("bit_sequence::slice out of range");
        }
        bit_sequence out;
        out.words_.resize((length + 63) / 64);
        for (std::size_t j = 0; j < out.words_.size(); ++j) {
            out.words_[j] = bits::read64(words_, first + 64 * j);
        }
        out.size_ = length;
        out.clear_tail();
        return out;
    }

    /// A copy of the packed words (bit i of word j is bit 64*j + i of the
    /// sequence; bits past the end of a partial final word are zero).
    std::vector<std::uint64_t> to_words() const { return words_; }

    /// Append the first `nbits` bits of a packed span (to_words() order):
    /// a word copy when size() is a multiple of 64, else one shift-merge
    /// per source word.
    void append_words(std::span<const std::uint64_t> words, std::size_t nbits)
    {
        if (nbits > words.size() * 64) {
            throw std::out_of_range(
                "bit_sequence::append_words: nbits exceeds the word buffer");
        }
        const std::size_t nwords = (nbits + 63) / 64;
        const unsigned off = static_cast<unsigned>(size_ % 64);
        const std::size_t first = words_.size();
        words_.resize((size_ + nbits + 63) / 64);
        if (off == 0) {
            for (std::size_t j = 0; j < nwords; ++j) {
                words_[first + j] = words[j];
            }
        } else {
            for (std::size_t j = 0; j < nwords; ++j) {
                words_[first - 1 + j] |= words[j] << off;
                if (first + j < words_.size()) {
                    words_[first + j] = words[j] >> (64 - off);
                }
            }
        }
        size_ += nbits;
        clear_tail();
    }

    /// Inverse of to_words(): the first `nbits` packed bits as a sequence.
    static bit_sequence from_words(std::span<const std::uint64_t> words,
                                   std::size_t nbits)
    {
        bit_sequence seq;
        seq.append_words(words, nbits);
        return seq;
    }

    std::string to_string() const
    {
        std::string s;
        s.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) {
            s.push_back((*this)[i] ? '1' : '0');
        }
        return s;
    }

    friend bool operator==(const bit_sequence&, const bit_sequence&) = default;

private:
    void check_index(std::size_t i) const
    {
        if (i >= size_) {
            throw std::out_of_range("bit_sequence: index out of range");
        }
    }

    /// Zero the bits past size() in the last word.
    void clear_tail()
    {
        if (size_ % 64 != 0) {
            words_.back() &= bits::low_mask(static_cast<unsigned>(size_ % 64));
        }
    }

    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

} // namespace otf
