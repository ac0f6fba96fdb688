// Base class for the bit-serial test engines.
//
// Every engine implements the *hardware column* of the paper's Table II for
// one statistical test: it observes the random bit stream one bit per clock
// cycle (all updates complete within that cycle) and accumulates the counter
// values that the software half later reads over the memory-mapped
// interface.  Engines never compute P-values or compare against critical
// values -- that is software's job; they expose raw counters through the
// register map, which is also what makes the platform resistant to
// alarm-wire fault attacks (there is no single alarm signal to ground).
#pragma once

#include "hw/register_map.hpp"
#include "rtl/component.hpp"

#include <cstddef>
#include <cstdint>

namespace otf::hw {

class engine : public rtl::component {
public:
    using rtl::component::component;

    /// \brief One clock cycle: consume the next random bit.
    /// \param bit       the incoming random bit
    /// \param bit_index current value of the global bit counter (0-based
    ///        position of `bit`), from which engines derive block
    ///        boundaries (sharing trick 2: block lengths are powers of
    ///        two, so boundary detection is a decode of the counter's low
    ///        bits, not a private counter)
    virtual void consume(bool bit, std::uint64_t bit_index) = 0;

    /// \brief Bulk-span fast lane: consume a whole packed span at once.
    /// Must leave the engine in exactly the state that `nbits` consume()
    /// calls would -- the per-bit path is the equivalence oracle, enforced
    /// by tests/test_kernel_oracle.cpp and tests/test_word_path.cpp.
    /// Engines implement it with whole-span kernels (popcount
    /// accumulation, match masks, the SWAR walk) that hoist state into
    /// locals and commit once per span.
    ///
    /// Kernels may assume nothing about length or alignment: `nbits` can
    /// be any length, and `bit_index` can fall anywhere
    /// (odd-length chunking), including inside a block shorter than a
    /// word.
    ///
    /// Engines that read the testing block's *shared* template window
    /// (sharing trick 4) must reconstruct it locally from its pre-span
    /// state: the block advances the shared register once per span,
    /// after dispatching the span to every engine.  Keeping this pure
    /// makes "bring your own span kernel" a compile-time requirement.
    /// \param words     stream bits packed LSB-first: bit i of words[i/64]
    ///                  is stream bit `bit_index + i`
    /// \param nbits     number of valid bits in the span
    /// \param bit_index global bit counter value at the span's first bit
    virtual void consume_span(const std::uint64_t* words, std::size_t nbits,
                              std::uint64_t bit_index) = 0;

    /// \brief Cyclic-extension flush cycle, fed with the stored opening
    /// bits of the sequence after the real stream has ended.  Only the
    /// serial/approximate-entropy engine uses these; the default is a
    /// no-op.
    /// \param bit a replayed opening bit
    /// \param t   0-based flush cycle index
    virtual void flush(bool bit, unsigned t)
    {
        (void)bit;
        (void)t;
    }

    /// \brief Publish this engine's hardware values into the memory map.
    /// \param map the testing block's register map under construction
    virtual void add_registers(register_map& map) const = 0;
};

} // namespace otf::hw
