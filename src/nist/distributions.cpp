#include "nist/distributions.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

double prob_longest_run_at_most(unsigned length, unsigned max_run)
{
    // q(n) = P[no run of ones longer than k in n fair bits].  Condition on
    // the first zero: j ones (j <= k) then a zero then a valid suffix; the
    // all-ones string contributes only while n <= k.
    const unsigned k = max_run;
    std::vector<double> q(length + 1, 0.0);
    q[0] = 1.0;
    // Precomputed 2^-(j+1) weights for the at most k+1 prefix shapes.
    std::vector<double> w(k + 1);
    for (unsigned j = 0; j <= k; ++j) {
        w[j] = std::ldexp(1.0, -static_cast<int>(j + 1));
    }
    for (unsigned n = 1; n <= length; ++n) {
        double total = 0.0;
        const unsigned j_max = (k < n - 1) ? k : n - 1;
        for (unsigned j = 0; j <= j_max; ++j) {
            total += w[j] * q[n - j - 1];
        }
        if (n <= k) {
            total += std::ldexp(1.0, -static_cast<int>(n));
        }
        q[n] = total;
    }
    return q[length];
}

std::vector<double> longest_run_category_probs(unsigned block_length,
                                               unsigned v_lo, unsigned v_hi)
{
    if (v_hi <= v_lo) {
        throw std::invalid_argument(
            "longest_run_category_probs: need v_hi > v_lo");
    }
    std::vector<double> probs;
    probs.reserve(v_hi - v_lo + 1);
    double below = prob_longest_run_at_most(block_length, v_lo);
    probs.push_back(below);
    for (unsigned v = v_lo + 1; v < v_hi; ++v) {
        const double upto = prob_longest_run_at_most(block_length, v);
        probs.push_back(upto - below);
        below = upto;
    }
    probs.push_back(1.0 - below);
    return probs;
}

longest_run_categories recommended_longest_run_categories(
    unsigned block_length)
{
    // SP 800-22 table 2-4 bounds for M = 8 and M = 128; blocks of 10^4-class
    // length (the paper's power-of-two variant uses 8192) take {10, 16}.
    if (block_length <= 8) {
        return {1, 4};
    }
    if (block_length <= 128) {
        return {4, 9};
    }
    return {10, 16};
}

namespace {

/// The template's prefix automaton, in flat arrays (m <= 31 states).
/// State s < m is the length of the longest template prefix that is a
/// suffix of the bits read so far.  Reading bit b from state s gives the
/// string prefix_s b: it is a match when that string is the whole template
/// (s + 1 = m), and the next state is the longest template prefix shorter
/// than m that is a suffix of it, so overlapping occurrences are counted.
/// Each transition is found by comparing the string's low k bits with the
/// template's top k bits for k from the longest candidate down: integer
/// compares only, no failure-function chains.
struct prefix_automaton {
    std::array<std::array<std::uint8_t, 2>, 32> next{};
    std::array<std::array<std::uint8_t, 2>, 32> match{};
};

prefix_automaton build_prefix_automaton(std::uint32_t templ, unsigned m)
{
    templ &= (1u << m) - 1u;
    prefix_automaton a;
    for (unsigned s = 0; s < m; ++s) {
        const std::uint32_t prefix = templ >> (m - s); // top s bits
        for (unsigned bit = 0; bit < 2; ++bit) {
            const std::uint32_t read = (prefix << 1) | bit; // s + 1 bits
            a.match[s][bit] = (s + 1 == m && read == templ) ? 1 : 0;
            unsigned k = s + 1 < m ? s + 1 : m - 1;
            while (k > 0
                   && (read & ((1u << k) - 1u)) != (templ >> (m - k))) {
                --k;
            }
            a.next[s][bit] = static_cast<std::uint8_t>(k);
        }
    }
    return a;
}

} // namespace

std::vector<double> overlapping_template_category_probs(std::uint32_t templ,
                                                        unsigned m,
                                                        unsigned block_length,
                                                        unsigned max_count)
{
    if (m == 0 || m > 31) {
        throw std::invalid_argument(
            "overlapping_template_category_probs: m must be in [1, 31]");
    }
    const prefix_automaton a = build_prefix_automaton(templ, m);
    const std::size_t counts = std::size_t{max_count} + 1; // last is ">="
    // dp[s * counts + c] = probability of automaton state s with c matches
    // (c capped at max_count) after `step` fair bits.
    std::vector<double> dp(m * counts, 0.0);
    std::vector<double> nx(m * counts, 0.0);
    dp[0] = 1.0;
    for (unsigned step = 0; step < block_length; ++step) {
        std::fill(nx.begin(), nx.end(), 0.0);
        for (unsigned s = 0; s < m; ++s) {
            for (std::size_t c = 0; c < counts; ++c) {
                const double p = dp[s * counts + c];
                for (unsigned bit = 0; bit < 2; ++bit) {
                    const std::size_t nc =
                        a.match[s][bit] != 0 && c < max_count ? c + 1 : c;
                    nx[a.next[s][bit] * counts + nc] += 0.5 * p;
                }
            }
        }
        dp.swap(nx);
    }
    std::vector<double> probs(counts, 0.0);
    for (unsigned s = 0; s < m; ++s) {
        for (std::size_t c = 0; c < counts; ++c) {
            probs[c] += dp[s * counts + c];
        }
    }
    return probs;
}

mean_variance non_overlapping_template_moments(unsigned m,
                                               unsigned block_length)
{
    const double M = block_length;
    const double two_m = std::ldexp(1.0, static_cast<int>(m));
    const double mean = (M - m + 1) / two_m;
    const double variance =
        M * (1.0 / two_m - (2.0 * m - 1.0) / (two_m * two_m));
    return {mean, variance};
}

bool is_aperiodic_template(std::uint32_t templ, unsigned m)
{
    // Aperiodic = no proper border: for every shift j in [1, m-1], the
    // length-(m-j) prefix differs from the length-(m-j) suffix.
    const std::uint32_t mask = (m == 32) ? ~0u : ((1u << m) - 1u);
    const std::uint32_t value = templ & mask;
    for (unsigned j = 1; j < m; ++j) {
        const std::uint32_t sub_mask = (1u << (m - j)) - 1u;
        const std::uint32_t prefix = (value >> j) & sub_mask;
        const std::uint32_t suffix = value & sub_mask;
        if (prefix == suffix) {
            return false;
        }
    }
    return true;
}

std::vector<std::uint32_t> aperiodic_templates(unsigned m)
{
    std::vector<std::uint32_t> result;
    const std::uint32_t limit = 1u << m;
    for (std::uint32_t t = 0; t < limit; ++t) {
        if (is_aperiodic_template(t, m)) {
            result.push_back(t);
        }
    }
    return result;
}

} // namespace otf::nist
