// Tests of the openMSP430-class CPU model: instruction semantics and
// flags, addressing-mode cycle costs, the hardware-multiplier peripheral,
// the program builder, and the quick-test firmware executed against live
// testing-block counters (verdicts must equal the instruction-accounting
// software routines' on the same bits).
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "msp430/firmware.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <gtest/gtest.h>

namespace {

using namespace otf;
using namespace otf::msp430;
using pb = program_builder;

TEST(msp430_cpu, mov_and_arithmetic)
{
    cpu core;
    program_builder a;
    a.mov(pb::imm(1000), pb::r(4));
    a.mov(pb::imm(2345), pb::r(5));
    a.add(pb::r(4), pb::r(5));
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.reg(5), 3345u);
}

TEST(msp430_cpu, add_sets_carry_on_wrap)
{
    cpu core;
    program_builder a;
    a.mov(pb::imm(0xFFFF), pb::r(4));
    a.add(pb::imm(2), pb::r(4));
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.reg(4), 1u);
    EXPECT_TRUE(core.status().carry);
}

TEST(msp430_cpu, multiword_add_with_addc)
{
    // 0x0001FFFF + 0x00010001 = 0x00030000 across two registers.
    cpu core;
    program_builder a;
    a.mov(pb::imm(0xFFFF), pb::r(4)); // lo
    a.mov(pb::imm(0x0001), pb::r(5)); // hi
    a.add(pb::imm(0x0001), pb::r(4));
    a.addc(pb::imm(0x0001), pb::r(5));
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.reg(4), 0x0000u);
    EXPECT_EQ(core.reg(5), 0x0003u);
}

TEST(msp430_cpu, cmp_sets_borrow_semantics)
{
    cpu core;
    program_builder a;
    a.mov(pb::imm(5), pb::r(4));
    a.cmp(pb::imm(7), pb::r(4)); // 5 - 7: borrow -> C = 0
    a.halt();
    core.run(a.build());
    EXPECT_FALSE(core.status().carry);
    EXPECT_FALSE(core.status().zero);

    program_builder b;
    b.mov(pb::imm(7), pb::r(4));
    b.cmp(pb::imm(7), pb::r(4));
    b.halt();
    core.run(b.build());
    EXPECT_TRUE(core.status().carry) << "equal -> no borrow";
    EXPECT_TRUE(core.status().zero);
}

TEST(msp430_cpu, subtraction_and_negation_pattern)
{
    // Two's-complement negate of 0x00012345 via XOR/ADD/ADDC.
    cpu core;
    program_builder a;
    a.mov(pb::imm(0x2345), pb::r(4));
    a.mov(pb::imm(0x0001), pb::r(5));
    a.xor_(pb::imm(0xFFFF), pb::r(4));
    a.xor_(pb::imm(0xFFFF), pb::r(5));
    a.add(pb::imm(1), pb::r(4));
    a.addc(pb::imm(0), pb::r(5));
    a.halt();
    core.run(a.build());
    // -(0x00012345) = 0xFFFEDCBB
    EXPECT_EQ(core.reg(4), 0xDCBBu);
    EXPECT_EQ(core.reg(5), 0xFFFEu);
}

TEST(msp430_cpu, shift_right_32_bit)
{
    cpu core;
    program_builder a;
    a.mov(pb::imm(0x0003), pb::r(5)); // hi
    a.mov(pb::imm(0x0002), pb::r(4)); // lo -> value 0x00030002
    a.rra(pb::r(5));
    a.rrc(pb::r(4));
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.reg(5), 0x0001u);
    EXPECT_EQ(core.reg(4), 0x8001u) << "carry from hi enters lo MSB";
}

TEST(msp430_cpu, memory_and_addressing_modes)
{
    cpu core;
    core.write_word(0x0300, 41);
    program_builder a;
    a.mov(pb::abs(0x0300), pb::r(4));
    a.add(pb::imm(1), pb::r(4));
    a.mov(pb::r(4), pb::abs(0x0302));
    a.mov(pb::imm(0x0302), pb::r(6));
    a.mov(pb::deref(6), pb::r(7));
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.read_word(0x0302), 42u);
    EXPECT_EQ(core.reg(7), 42u);
}

TEST(msp430_cpu, memory_operands_cost_more_cycles)
{
    cpu fast_core;
    program_builder fast;
    fast.mov(pb::imm(1), pb::r(4));
    fast.add(pb::r(4), pb::r(4));
    fast.halt();
    fast_core.run(fast.build());

    cpu slow_core;
    slow_core.write_word(0x0300, 1);
    program_builder slow;
    slow.mov(pb::abs(0x0300), pb::r(4));
    slow.add(pb::abs(0x0300), pb::r(4));
    slow.halt();
    slow_core.run(slow.build());

    EXPECT_GT(slow_core.cycles(), fast_core.cycles());
}

TEST(msp430_cpu, hardware_multiplier_peripheral)
{
    cpu core;
    program_builder a;
    a.mov(pb::imm(1234), pb::abs(cpu::multiplier_op1));
    a.mov(pb::imm(5678), pb::abs(cpu::multiplier_op2));
    a.mov(pb::abs(cpu::multiplier_reslo), pb::r(4));
    a.mov(pb::abs(cpu::multiplier_reshi), pb::r(5));
    a.halt();
    core.run(a.build());
    const std::uint32_t product =
        (static_cast<std::uint32_t>(core.reg(5)) << 16) | core.reg(4);
    EXPECT_EQ(product, 1234u * 5678u);
}

TEST(msp430_cpu, loop_with_conditional_jump)
{
    // Sum 1..10 with a decrement loop.
    cpu core;
    program_builder a;
    a.mov(pb::imm(10), pb::r(4));
    a.mov(pb::imm(0), pb::r(5));
    a.label("loop");
    a.add(pb::r(4), pb::r(5));
    a.sub(pb::imm(1), pb::r(4));
    a.jnz("loop");
    a.halt();
    core.run(a.build());
    EXPECT_EQ(core.reg(5), 55u);
}

TEST(msp430_cpu, runaway_program_hits_step_budget)
{
    cpu core;
    program_builder a;
    a.label("forever");
    a.jmp("forever");
    EXPECT_THROW(core.run(a.build(), 1000), std::runtime_error);
}

TEST(program_builder, rejects_undefined_and_duplicate_labels)
{
    {
        program_builder a;
        a.jmp("nowhere");
        EXPECT_THROW(a.build(), std::invalid_argument);
    }
    {
        program_builder a;
        a.label("x");
        EXPECT_THROW(a.label("x"), std::invalid_argument);
    }
}

// ---------------------------------------------------------------- firmware --
class firmware_test : public ::testing::Test {
protected:
    void SetUp() override
    {
        cfg_ = core::paper_design(16, core::tier::light);
        cv_ = core::compute_critical_values(cfg_, 0.01);
    }

    struct outcome {
        bool freq_pass;
        bool cusum_pass;
        std::uint32_t ones;
        std::uint64_t cycles;
    };

    outcome run_firmware(const bit_sequence& seq)
    {
        hw::testing_block block(cfg_);
        block.run(seq);
        const auto fw = build_quick_test_firmware(cfg_, cv_,
                                                  block.registers());
        cpu core;
        const std::uint64_t cycles =
            run_quick_tests(core, fw, block.registers());
        outcome o;
        o.freq_pass = core.read_word(fw.frequency_verdict_addr) == 1;
        o.cusum_pass = core.read_word(fw.cusum_verdict_addr) == 1;
        o.ones = (static_cast<std::uint32_t>(
                      core.read_word(fw.ones_hi_addr))
                  << 16)
            | core.read_word(fw.ones_lo_addr);
        o.cycles = cycles;
        return o;
    }

    hw::block_config cfg_;
    core::critical_values cv_;
};

TEST_F(firmware_test, verdicts_match_software_runner_across_seeds)
{
    // Linked once against one block's layout, run on a fresh block of the
    // same design per seed.
    const hw::testing_block layout(cfg_);
    const core::software_runner runner(cfg_, cv_, layout.registers());
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        trng::ideal_source src(seed * 31);
        const bit_sequence seq = src.generate(cfg_.n());

        const outcome fw = run_firmware(seq);

        hw::testing_block block(cfg_);
        block.run(seq);
        sw16::soft_cpu acc(16);
        const auto sw = runner.run(block.registers(), acc);
        EXPECT_EQ(fw.freq_pass,
                  sw.find(hw::test_id::frequency)->pass)
            << "seed " << seed;
        EXPECT_EQ(fw.cusum_pass,
                  sw.find(hw::test_id::cumulative_sums)->pass)
            << "seed " << seed;
        EXPECT_EQ(fw.ones, seq.count_ones()) << "seed " << seed;
    }
}

TEST_F(firmware_test, detects_total_failure)
{
    const outcome o = run_firmware(bit_sequence(cfg_.n(), true));
    EXPECT_FALSE(o.freq_pass);
    EXPECT_FALSE(o.cusum_pass);
    EXPECT_EQ(o.ones, cfg_.n());
}

TEST_F(firmware_test, detects_bias)
{
    trng::biased_source src(5, 0.53);
    const outcome o = run_firmware(src.generate(cfg_.n()));
    EXPECT_FALSE(o.freq_pass);
}

TEST_F(firmware_test, executes_in_tens_of_cycles)
{
    trng::ideal_source src(9);
    const outcome o = run_firmware(src.generate(cfg_.n()));
    // The quick tests are two handfuls of 32-bit operations: the measured
    // latency must sit far below the window generation time (the paper's
    // on-the-fly argument) and above a trivial handful of cycles.
    EXPECT_GT(o.cycles, 30u);
    EXPECT_LT(o.cycles, 400u);
    EXPECT_LT(o.cycles, cfg_.n());
}

TEST_F(firmware_test, rejects_designs_without_quick_tests)
{
    hw::block_config missing = cfg_;
    missing.tests = hw::test_set{}
                        .with(hw::test_id::frequency)
                        .with(hw::test_id::block_frequency)
                        .with(hw::test_id::runs)
                        .with(hw::test_id::longest_run)
                        .with(hw::test_id::cumulative_sums);
    // Valid design, but the 128-bit variant reads one-word walk values.
    hw::block_config tiny = core::paper_design(7, core::tier::light);
    const hw::testing_block tiny_block(tiny);
    EXPECT_THROW(build_quick_test_firmware(
                     tiny, core::compute_critical_values(tiny, 0.01),
                     tiny_block.registers()),
                 std::invalid_argument);
}

} // namespace
