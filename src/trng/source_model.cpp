#include "trng/source_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace otf::trng {

namespace {

/// Dwell sentinel: "stay in this state forever" (severity 0 regimes).
constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();

std::uint64_t low_mask(unsigned k)
{
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

unsigned quantize(double p)
{
    const double q = std::round(p * 256.0);
    return q <= 0.0 ? 0u : q >= 256.0 ? 256u : static_cast<unsigned>(q);
}

std::string format_param(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

} // namespace

std::uint64_t geometric_dwell(xoshiro256ss& rng, double mean_bits)
{
    if (!(mean_bits >= 1.0)) {
        throw std::invalid_argument(
            "geometric_dwell: mean must be >= 1 bit");
    }
    const double u = rng.next_double();
    const double sample = -std::log1p(-u) * mean_bits;
    if (!(sample < 1.0e15)) { // overflow / u == 1 guard
        return static_cast<std::uint64_t>(1.0e15);
    }
    return 1 + static_cast<std::uint64_t>(sample);
}

source_model::source_model(std::unique_ptr<entropy_source> inner)
    : inner_(std::move(inner))
{
    if (!inner_) {
        throw std::invalid_argument("source_model: null inner source");
    }
}

bool source_model::next_bit()
{
    if (out_left_ == 0) {
        out_buf_ = next_word();
        out_left_ = 64;
    }
    const bool bit = (out_buf_ & 1u) != 0;
    out_buf_ >>= 1;
    --out_left_;
    return bit;
}

void source_model::apply_out_splice(std::uint64_t* out, std::size_t nwords)
{
    if (out_left_ == 0 || nwords == 0) {
        return;
    }
    // Splice: `out_left_` buffered bits lead every output word, the rest
    // comes from the freshly generated words already in `out`
    // (xoshiro256ss::next_bits64 generalized to a run of words;
    // out_left_ is in [1, 63] here).
    const unsigned have = out_left_;
    std::uint64_t carry = out_buf_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t fresh = out[j];
        out[j] = carry | (fresh << have);
        carry = fresh >> (64 - have);
    }
    out_buf_ = carry;
    // out_left_ unchanged: each word consumed `have` carried bits and
    // left `have` fresh ones behind.
}

void source_model::fill_words(std::uint64_t* out, std::size_t nwords)
{
    next_words(out, nwords);
    apply_out_splice(out, nwords);
}

void source_model::fill_words_scalar(std::uint64_t* out, std::size_t nwords)
{
    for (std::size_t j = 0; j < nwords; ++j) {
        out[j] = next_word();
    }
    apply_out_splice(out, nwords);
}

void source_model::next_words(std::uint64_t* out, std::size_t nwords)
{
    for (std::size_t j = 0; j < nwords; ++j) {
        out[j] = next_word();
    }
}

void source_model::set_severity(double s)
{
    if (!(s >= 0.0 && s <= 1.0)) {
        throw std::invalid_argument(
            "source_model: severity must be in [0, 1]");
    }
    const bool changed = s != severity_;
    severity_ = s;
    if (changed) {
        severity_changed();
    }
}

unsigned source_model::severity_q() const
{
    return quantize(severity_);
}

std::uint64_t source_model::inner_word()
{
    if (in_left_ == 0) {
        std::uint64_t w;
        inner_->fill_words(&w, 1);
        return w;
    }
    return take_inner(64);
}

void source_model::inner_words(std::uint64_t* out, std::size_t nwords)
{
    // One bulk inner fill; the in-place carry splice is exactly what
    // `nwords` inner_word() calls would have produced, because the inner
    // stream is positional (take_inner refills in whole words, so the
    // buffer state after consuming B bits depends only on B).
    inner_->fill_words(out, nwords);
    if (in_left_ == 0 || nwords == 0) {
        return;
    }
    const unsigned have = in_left_;
    std::uint64_t carry = in_buf_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t fresh = out[j];
        out[j] = carry | (fresh << have);
        carry = fresh >> (64 - have);
    }
    in_buf_ = carry;
}

void source_model::take_inner_span(std::uint64_t* out, std::uint64_t bit_pos,
                                   std::uint64_t nbits)
{
    // Drain the buffered inner bits first (at most 63 of them).
    while (nbits > 0 && in_left_ > 0) {
        const unsigned k = static_cast<unsigned>(
            std::min<std::uint64_t>(in_left_, nbits));
        bits::or_bits(out, bit_pos, take_inner(k), k);
        bit_pos += k;
        nbits -= k;
    }
    if (nbits == 0) {
        return;
    }
    // Bulk: fetch whole inner words in one call, then shift them into
    // place in a single carry pass (one read-modify-write per output
    // word, not the two of a per-word or_bits); the unconsumed tail of
    // the final word goes back into the inner-side buffer exactly as
    // take_inner would leave it.
    const std::size_t nfetch = static_cast<std::size_t>((nbits + 63) / 64);
    if (inner_scratch_.size() < nfetch) {
        inner_scratch_.resize(nfetch);
    }
    std::uint64_t* fetched = inner_scratch_.data();
    inner_->fill_words(fetched, nfetch);
    const unsigned off = static_cast<unsigned>(bit_pos % 64);
    const std::size_t w = static_cast<std::size_t>(bit_pos / 64);
    const unsigned take =
        static_cast<unsigned>(nbits - 64 * (nfetch - 1));
    const std::uint64_t last = fetched[nfetch - 1];
    // Mask the final fetched word down to the bits this span consumes so
    // no stray bits reach the output; its unconsumed tail goes back into
    // the inner-side buffer below.
    fetched[nfetch - 1] = last & bits::low_mask(take);
    if (off == 0) {
        for (std::size_t j = 0; j < nfetch; ++j) {
            out[w + j] |= fetched[j];
        }
    } else {
        // Each fetched word splits across two output words at a fixed
        // offset; carry the high part forward so every output word is
        // touched once.
        out[w] |= fetched[0] << off;
        for (std::size_t j = 1; j < nfetch; ++j) {
            out[w + j] |=
                (fetched[j - 1] >> (64 - off)) | (fetched[j] << off);
        }
        if (off + take > 64) {
            out[w + nfetch] |= fetched[nfetch - 1] >> (64 - off);
        }
    }
    if (take < 64) {
        in_buf_ = last >> take;
        in_left_ = 64 - take;
    }
}

std::uint64_t source_model::take_inner(unsigned k)
{
    if (k == 0 || k > 64) {
        throw std::invalid_argument("source_model: take_inner needs 1..64");
    }
    if (in_left_ == 0) {
        inner_->fill_words(&in_buf_, 1);
        in_left_ = 64;
    }
    if (k <= in_left_) {
        const std::uint64_t bits = in_buf_ & low_mask(k);
        in_buf_ = k >= 64 ? 0 : in_buf_ >> k;
        in_left_ -= k;
        return bits;
    }
    // Splice the remaining buffered bits with the low bits of a fresh
    // inner word (k > in_left_ >= 1, so need is in [1, 63]).
    const unsigned have = in_left_;
    const unsigned need = k - have;
    const std::uint64_t low = in_buf_;
    std::uint64_t fresh;
    inner_->fill_words(&fresh, 1);
    in_buf_ = fresh >> need;
    in_left_ = 64 - need;
    return low | ((fresh & low_mask(need)) << have);
}

// -- rtn_source -------------------------------------------------------------

rtn_source::rtn_source(std::unique_ptr<entropy_source> inner,
                       std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (!(params.dwell_on >= 1.0)) {
        throw std::invalid_argument("rtn_source: dwell_on must be >= 1");
    }
    if (!(params.duty > 0.0 && params.duty < 1.0)) {
        throw std::invalid_argument("rtn_source: duty must be in (0, 1)");
    }
    // The healthy-dwell mean is longest at full severity; reject the
    // combinations whose mean would drop below one bit there instead of
    // letting geometric_dwell throw mid-stream.
    if (params.dwell_on * (1.0 - params.duty) / params.duty < 1.0) {
        throw std::invalid_argument(
            "rtn_source: dwell_on * (1 - duty) / duty must be >= 1 "
            "(healthy dwell shorter than one bit)");
    }
    // active_ = true with an expired dwell: the first word toggles into a
    // freshly sampled healthy stretch.
}

void rtn_source::toggle()
{
    active_ = !active_;
    if (active_) {
        remaining_ = geometric_dwell(rng_, params_.dwell_on);
        return;
    }
    const double duty = severity() * params_.duty;
    if (duty <= 0.0) {
        remaining_ = kForever;
        return;
    }
    remaining_ = geometric_dwell(rng_,
                                 params_.dwell_on * (1.0 - duty) / duty);
}

void rtn_source::severity_changed()
{
    // Re-arm the healthy dwell so the trap responds to the new operating
    // point instead of waiting out a stale (possibly infinite) dwell.  An
    // in-progress burst keeps its sampled length.
    if (!active_) {
        const double duty = severity() * params_.duty;
        remaining_ = duty <= 0.0
            ? kForever
            : geometric_dwell(rng_,
                              params_.dwell_on * (1.0 - duty) / duty);
    }
}

std::uint64_t rtn_source::next_word()
{
    std::uint64_t w = 0;
    unsigned filled = 0;
    while (filled < 64) {
        if (remaining_ == 0) {
            toggle();
        }
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(remaining_, 64 - filled));
        if (active_) {
            if (params_.level) {
                w |= low_mask(chunk) << filled;
            }
            // The comparator output is pinned: inner bits are not sampled
            // during the burst (both lanes agree on this by construction).
        } else {
            w |= take_inner(chunk) << filled;
        }
        filled += chunk;
        if (remaining_ != kForever) {
            remaining_ -= chunk;
        }
    }
    return w;
}

void rtn_source::next_words(std::uint64_t* out, std::size_t nwords)
{
    // Run-length expansion: walk the dwell state machine once per dwell
    // span instead of once per word.  A burst span is a single bit-run
    // fill (or nothing: the output starts zeroed), a healthy span one
    // bulk inner drain; dwell sampling hits rng_ at exactly the same
    // stream positions as the per-word lane, so the draws line up.
    std::fill_n(out, nwords, std::uint64_t{0});
    const std::uint64_t total = 64 * static_cast<std::uint64_t>(nwords);
    std::uint64_t pos = 0;
    while (pos < total) {
        if (remaining_ == 0) {
            toggle();
        }
        const std::uint64_t span =
            std::min<std::uint64_t>(remaining_, total - pos);
        if (active_) {
            if (params_.level) {
                bits::set_bit_run(out, pos, span);
            }
        } else {
            take_inner_span(out, pos, span);
        }
        pos += span;
        if (remaining_ != kForever) {
            remaining_ -= span;
        }
    }
}

std::string rtn_source::name() const
{
    return "rtn(dwell=" + format_param(params_.dwell_on)
        + ",duty=" + format_param(params_.duty)
        + ",level=" + (params_.level ? "1" : "0") + ")<" + inner().name()
        + ">";
}

// -- bias_drift_source ------------------------------------------------------

bias_drift_source::bias_drift_source(std::unique_ptr<entropy_source> inner,
                                     std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.step_bits == 0 || params.step_bits % 64 != 0) {
        throw std::invalid_argument(
            "bias_drift_source: step_bits must be a non-zero multiple "
            "of 64");
    }
    if (params.max_shift_q > 256) {
        throw std::invalid_argument(
            "bias_drift_source: max_shift_q must be <= 256");
    }
    if (!(params.p_out >= 0.0 && params.p_back >= 0.0
          && params.p_out + params.p_back <= 1.0)) {
        throw std::invalid_argument(
            "bias_drift_source: need p_out, p_back >= 0 and "
            "p_out + p_back <= 1");
    }
}

double bias_drift_source::current_shift() const
{
    const double magnitude =
        severity() * static_cast<double>(walk_q_) / 512.0;
    return params_.towards_one ? magnitude : -magnitude;
}

std::uint64_t bias_drift_source::next_word()
{
    if (bits_until_step_ == 0) {
        const double u = rng_.next_double();
        if (u < params_.p_out) {
            if (walk_q_ < params_.max_shift_q) {
                ++walk_q_;
            }
        } else if (u < params_.p_out + params_.p_back) {
            if (walk_q_ > 0) {
                --walk_q_;
            }
        }
        bits_until_step_ = params_.step_bits;
    }
    bits_until_step_ -= 64;
    const std::uint64_t in = inner_word();
    // OR-ing a Bernoulli(q/256) mask lifts P[1] by q/512 on an unbiased
    // stream (AND-NOT lowers it), leaving inner correlations in place.
    const unsigned q =
        quantize(severity() * static_cast<double>(walk_q_) / 256.0);
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return params_.towards_one ? (in | m) : (in & ~m);
}

void bias_drift_source::next_words(std::uint64_t* out, std::size_t nwords)
{
    // The walk is independent of the inner stream, so the whole inner
    // batch is drained up front; rng_ then sees the same step/mask draw
    // order as the per-word lane (step at each boundary, masks between).
    inner_words(out, nwords);
    // Draw from a local generator copy for the batch (restored at the
    // end): the state members are uint64_t like `out`, so mask draws
    // through rng_ would reload the state every store (may-alias).
    xoshiro256ss rng = rng_;
    std::size_t j = 0;
    while (j < nwords) {
        if (bits_until_step_ == 0) {
            const double u = rng.next_double();
            if (u < params_.p_out) {
                if (walk_q_ < params_.max_shift_q) {
                    ++walk_q_;
                }
            } else if (u < params_.p_out + params_.p_back) {
                if (walk_q_ > 0) {
                    --walk_q_;
                }
            }
            bits_until_step_ = params_.step_bits;
        }
        // walk_q_ is constant until the next step: one quantization per
        // run instead of per word.
        const std::size_t run = static_cast<std::size_t>(
            std::min<std::uint64_t>(nwords - j, bits_until_step_ / 64));
        bits_until_step_ -= 64 * static_cast<std::uint64_t>(run);
        const unsigned q =
            quantize(severity() * static_cast<double>(walk_q_) / 256.0);
        const std::size_t end = j + run;
        if (q == 0) {
            j = end;
        } else if (q == 128) {
            // Half-rail shift: the mask fold degenerates to the single
            // q/256 = 1/2 draw, so pull raw words directly and skip the
            // per-word fold set-up (same draw count, bit-exact).
            if (params_.towards_one) {
                for (; j < end; ++j) {
                    out[j] |= rng.next();
                }
            } else {
                for (; j < end; ++j) {
                    out[j] &= ~rng.next();
                }
            }
        } else if (params_.towards_one) {
            for (; j < end; ++j) {
                out[j] |= bernoulli_mask(rng, q);
            }
        } else {
            for (; j < end; ++j) {
                out[j] &= ~bernoulli_mask(rng, q);
            }
        }
    }
    rng_ = rng;
}

std::string bias_drift_source::name() const
{
    return "bias-drift(max=" + std::to_string(params_.max_shift_q)
        + "/512,step=" + std::to_string(params_.step_bits)
        + (params_.towards_one ? ",up" : ",down") + ")<" + inner().name()
        + ">";
}

// -- lockin_source ----------------------------------------------------------

lockin_source::lockin_source(std::unique_ptr<entropy_source> inner,
                             std::uint64_t seed, bit_sequence pattern)
    : source_model(std::move(inner)), rng_(seed),
      pattern_(std::move(pattern))
{
    if (pattern_.empty()) {
        throw std::invalid_argument("lockin_source: empty pattern");
    }
}

std::uint64_t lockin_source::pattern_word(std::size_t phase) const
{
    // 64 pattern bits from `phase` on, wrapping at the period: one read of
    // the packed pattern per stretch up to its end.
    const std::size_t period = pattern_.size();
    std::uint64_t pat = 0;
    unsigned filled = 0;
    std::size_t pos = phase % period;
    while (filled < 64) {
        const std::size_t left = period - pos;
        const unsigned take = left < 64 - filled
            ? static_cast<unsigned>(left)
            : 64 - filled;
        pat |= (bits::read64(pattern_.words(), pos) & bits::low_mask(take))
            << filled;
        filled += take;
        pos = pos + take == period ? 0 : pos + take;
    }
    return pat;
}

std::uint64_t lockin_source::next_word()
{
    // The injected waveform's phase advances with the stream whether or
    // not a given bit locks -- the oscillator keeps running.
    const std::size_t period = pattern_.size();
    const std::size_t phase = phase_;
    phase_ = (phase_ + 64) % period;
    const std::uint64_t in = inner_word();
    const unsigned q = severity_q();
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & pattern_word(phase)) | (~m & in);
}

void lockin_source::next_words(std::uint64_t* out, std::size_t nwords)
{
    inner_words(out, nwords);
    const std::size_t period = pattern_.size();
    const unsigned q = severity_q();
    if (q == 0) {
        phase_ = (phase_ + 64 * nwords) % period;
        return;
    }
    // The per-word phase advances by 64 mod period, so the packed
    // pattern repeats after period / gcd(period, 64) distinct words:
    // build that tile once per batch and index it cyclically.  Mask
    // draws run on a local generator copy so the out[] stores cannot
    // alias the uint64_t state members.
    xoshiro256ss rng = rng_;
    const std::size_t cycle = period / std::gcd<std::size_t>(period, 64);
    if (cycle <= nwords) {
        tile_.resize(cycle);
        for (std::size_t c = 0; c < cycle; ++c) {
            tile_[c] = pattern_word((phase_ + 64 * c) % period);
        }
        const std::uint64_t* tile = tile_.data();
        std::size_t idx = 0;
        for (std::size_t j = 0; j < nwords; ++j) {
            const std::uint64_t m = bernoulli_mask(rng, q);
            out[j] = (m & tile[idx]) | (~m & out[j]);
            if (++idx == cycle) {
                idx = 0;
            }
        }
    } else {
        std::size_t phase = phase_;
        for (std::size_t j = 0; j < nwords; ++j) {
            const std::uint64_t m = bernoulli_mask(rng, q);
            out[j] = (m & pattern_word(phase)) | (~m & out[j]);
            phase = (phase + 64) % period;
        }
    }
    rng_ = rng;
    phase_ = (phase_ + 64 * nwords) % period;
}

std::string lockin_source::name() const
{
    return "lockin(period=" + std::to_string(pattern_.size()) + ")<"
        + inner().name() + ">";
}

// -- fault_source -----------------------------------------------------------

fault_source::fault_source(std::unique_ptr<entropy_source> inner,
                           std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (!(params.stuck_prob >= 0.0 && params.stuck_prob <= 1.0)
        || !(params.dropout_prob >= 0.0 && params.dropout_prob <= 1.0)) {
        throw std::invalid_argument(
            "fault_source: probabilities must be in [0, 1]");
    }
}

std::uint64_t fault_source::next_word()
{
    const unsigned qs = quantize(severity() * params_.stuck_prob);
    const unsigned qd = quantize(severity() * params_.dropout_prob);
    const std::uint64_t in = inner_word();
    const std::uint64_t s = bernoulli_mask(rng_, qs);
    const std::uint64_t d = bernoulli_mask(rng_, qd);
    const std::uint64_t stuck = params_.stuck_value ? ~std::uint64_t{0} : 0;
    std::uint64_t w;
    if (d == 0) {
        w = (s & stuck) | (~s & in);
    } else {
        // Dropout repeats the previous *output* bit: a bit-serial chain,
        // folded in a tight scalar loop (the masks above already did the
        // per-word RNG work).
        w = 0;
        bool prev = last_bit_;
        for (unsigned i = 0; i < 64; ++i) {
            const bool bit = ((d >> i) & 1u) != 0 ? prev
                : ((s >> i) & 1u) != 0            ? params_.stuck_value
                                                  : ((in >> i) & 1u) != 0;
            w |= static_cast<std::uint64_t>(bit ? 1 : 0) << i;
            prev = bit;
        }
    }
    last_bit_ = (w >> 63) != 0;
    return w;
}

namespace {

/// Resolve the dropout sample-and-hold chain of one word without the
/// bit-serial loop: every dropped bit repeats the nearest non-dropped
/// *output* bit below it (`prev` = the last output bit of the previous
/// word, for holes at the bottom).  Parallel-prefix doubling with
/// ascending shifts: after shifts 1..s, every hole whose nearest resolved
/// bit lies within 2s-1 positions carries that bit's value, so shift 2s
/// can copy across gaps of up to 4s-1 -- gaps up to 63 are closed by
/// shift 32.
std::uint64_t dropout_fill(std::uint64_t base, std::uint64_t dropped,
                           bool prev)
{
    std::uint64_t known = ~dropped;
    std::uint64_t v = base & known;
    const unsigned lead = known == 0
        ? 64u
        : static_cast<unsigned>(std::countr_zero(known));
    // Holes below the first resolved bit repeat the carried-in bit.
    if (prev) {
        v |= low_mask(lead);
    }
    known |= low_mask(lead);
    for (unsigned s = 1; s < 64 && known != ~std::uint64_t{0}; s <<= 1) {
        v |= (v << s) & (known << s) & ~known;
        known |= known << s;
    }
    return v;
}

} // namespace

void fault_source::next_words(std::uint64_t* out, std::size_t nwords)
{
    const unsigned qs = quantize(severity() * params_.stuck_prob);
    const unsigned qd = quantize(severity() * params_.dropout_prob);
    inner_words(out, nwords);
    const std::uint64_t stuck = params_.stuck_value ? ~std::uint64_t{0} : 0;
    // Local generator copy: the out[] stores would otherwise force the
    // uint64_t state members to reload every iteration (may-alias).
    xoshiro256ss rng = rng_;
    bool prev = last_bit_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t s = bernoulli_mask(rng, qs);
        const std::uint64_t d = bernoulli_mask(rng, qd);
        std::uint64_t w = (s & stuck) | (~s & out[j]);
        if (d != 0) {
            w = dropout_fill(w, d, prev);
        }
        prev = (w >> 63) != 0;
        out[j] = w;
    }
    rng_ = rng;
    last_bit_ = prev;
}

std::string fault_source::name() const
{
    return "fault(stuck=" + format_param(params_.stuck_prob) + "@"
        + (params_.stuck_value ? "1" : "0")
        + ",dropout=" + format_param(params_.dropout_prob) + ")<"
        + inner().name() + ">";
}

// -- entropy_collapse_source ------------------------------------------------

entropy_collapse_source::entropy_collapse_source(
    std::unique_ptr<entropy_source> inner, std::uint64_t seed,
    parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.fingerprint_bits == 0 || params.fingerprint_bits % 64 != 0) {
        throw std::invalid_argument(
            "entropy_collapse_source: fingerprint_bits must be a "
            "non-zero multiple of 64");
    }
    if (!(params.cell_one_prob >= 0.0 && params.cell_one_prob <= 1.0)
        || !(params.max_fraction >= 0.0 && params.max_fraction <= 1.0)) {
        throw std::invalid_argument(
            "entropy_collapse_source: probabilities must be in [0, 1]");
    }
    // The power-up fingerprint is a fixed property of the simulated
    // device: sampled once at construction from the model's own PRNG.
    fingerprint_.resize(
        static_cast<std::size_t>(params.fingerprint_bits / 64));
    for (std::uint64_t& word : fingerprint_) {
        word = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if (rng_.next_double() < params.cell_one_prob) {
                word |= std::uint64_t{1} << i;
            }
        }
    }
}

std::uint64_t entropy_collapse_source::next_word()
{
    // Cells are address-locked: the fingerprint word is indexed by stream
    // position, independent of which bits actually collapsed.
    const std::uint64_t fp = fingerprint_[fp_word_];
    fp_word_ = (fp_word_ + 1) % fingerprint_.size();
    const std::uint64_t in = inner_word();
    const unsigned q = quantize(severity() * params_.max_fraction);
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & fp) | (~m & in);
}

void entropy_collapse_source::next_words(std::uint64_t* out,
                                         std::size_t nwords)
{
    // The inner source free-runs regardless of how many cells collapsed,
    // so it is drained in one bulk call even when fully overwritten.
    inner_words(out, nwords);
    const unsigned q = quantize(severity() * params_.max_fraction);
    const std::size_t fpn = fingerprint_.size();
    if (q == 0) {
        fp_word_ = (fp_word_ + nwords) % fpn;
        return;
    }
    if (q >= 256) {
        // Fully collapsed: bernoulli_mask(q >= 256) is all-ones and
        // draw-free, so the output is the fingerprint tile itself --
        // block copies instead of per-word mask folds.
        std::size_t j = 0;
        while (j < nwords) {
            const std::size_t run = std::min(nwords - j, fpn - fp_word_);
            std::copy_n(fingerprint_.data() + fp_word_, run, out + j);
            j += run;
            fp_word_ = (fp_word_ + run) % fpn;
        }
        return;
    }
    // Partial collapse: per-word mask fold, drawing from a local
    // generator copy so the out[] stores cannot alias the state.
    xoshiro256ss rng = rng_;
    const std::uint64_t* fp = fingerprint_.data();
    std::size_t fpw = fp_word_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t m = bernoulli_mask(rng, q);
        out[j] = (m & fp[fpw]) | (~m & out[j]);
        fpw = (fpw + 1) % fpn;
    }
    rng_ = rng;
    fp_word_ = fpw;
}

std::string entropy_collapse_source::name() const
{
    return "sram-collapse(period=" + std::to_string(params_.fingerprint_bits)
        + ",skew=" + format_param(params_.cell_one_prob) + ")<"
        + inner().name() + ">";
}

// -- substitution_source ----------------------------------------------------

substitution_source::substitution_source(
    std::unique_ptr<entropy_source> inner, std::uint64_t seed,
    parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.period_bits == 0 || params.period_bits % 64 != 0) {
        throw std::invalid_argument(
            "substitution_source: period_bits must be a non-zero "
            "multiple of 64");
    }
    block_.resize(static_cast<std::size_t>(params.period_bits / 64));
    for (std::uint64_t& word : block_) {
        word = rng_.next();
    }
}

std::uint64_t substitution_source::next_word()
{
    const std::uint64_t sub = block_[pos_];
    pos_ = (pos_ + 1) % block_.size();
    // The true source keeps free-running underneath the splice.
    const std::uint64_t in = inner_word();
    const unsigned q = severity_q();
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & sub) | (~m & in);
}

void substitution_source::next_words(std::uint64_t* out, std::size_t nwords)
{
    // The true source keeps free-running underneath the splice: drain it
    // in bulk first, exactly as the per-word lane consumes it.
    inner_words(out, nwords);
    const unsigned q = severity_q();
    const std::size_t bn = block_.size();
    if (q == 0) {
        pos_ = (pos_ + nwords) % bn;
        return;
    }
    if (q >= 256) {
        // Pure replay (draw-free, like the per-word lane's all-ones
        // mask): loop the captured block over the batch.  Hand-rolled
        // copy -- the default period is only a few words, so a library
        // copy call per run would dominate the loop.
        const std::uint64_t* block = block_.data();
        std::size_t pos = pos_;
        std::size_t j = 0;
        while (j < nwords) {
            const std::size_t run = std::min(nwords - j, bn - pos);
            for (std::size_t i = 0; i < run; ++i) {
                out[j + i] = block[pos + i];
            }
            j += run;
            pos += run;
            if (pos == bn) {
                pos = 0;
            }
        }
        pos_ = pos;
        return;
    }
    // Partial substitution: per-word mask fold, drawing from a local
    // generator copy so the out[] stores cannot alias the state.
    xoshiro256ss rng = rng_;
    const std::uint64_t* block = block_.data();
    std::size_t pos = pos_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t m = bernoulli_mask(rng, q);
        out[j] = (m & block[pos]) | (~m & out[j]);
        pos = (pos + 1) % bn;
    }
    rng_ = rng;
    pos_ = pos;
}

std::string substitution_source::name() const
{
    return "substitution(period=" + std::to_string(params_.period_bits)
        + ")<" + inner().name() + ">";
}

} // namespace otf::trng
