// The flexibility claim of Section III-A: "Each test can be carried out
// with a critical value alpha of level of significance ... The presented
// hardware blocks analyze the generated sequence and provide the results
// that do not depend on alpha."
//
// This harness re-runs the same hardware counter values under software
// configured for different alpha (the NIST-recommended range 0.001..0.01)
// and shows (a) the hardware is bit-identical -- only the precomputed
// constants change -- and (b) the measured type-1 rate tracks alpha.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"

#include <cstdio>

using namespace otf;

int main()
{
    const auto cfg = core::paper_design(16, core::tier::high);
    const unsigned windows = smoke_scaled(150u, 20u);

    std::printf("alpha flexibility on %s: same hardware, different "
                "software constants\n\n",
                cfg.name.c_str());

    // One shared set of hardware runs: collect counter snapshots once.
    trng::ideal_source src(0xA1FA);
    std::vector<bit_sequence> sequences;
    sequences.reserve(windows);
    for (unsigned w = 0; w < windows; ++w) {
        sequences.push_back(src.generate(cfg.n()));
    }

    std::printf("%-8s %16s %18s %22s\n", "alpha", "t1 bound |S|",
                "t13 bound z", "windows failing (rate)");
    for (const double alpha : {0.001, 0.005, 0.01}) {
        const auto cv = core::compute_critical_values(cfg, alpha);
        hw::testing_block block(cfg);
        const core::software_runner runner(cfg, cv, block.registers());
        unsigned failures = 0;
        for (const auto& seq : sequences) {
            block.run(seq);
            sw16::soft_cpu cpu(16);
            const auto result = runner.run(block.registers(), cpu);
            failures += result.all_pass ? 0 : 1;
            block.restart();
        }
        std::printf("%-8.3f %16lld %18lld %14u (%4.1f%%)\n", alpha,
                    static_cast<long long>(cv.t1_max_deviation),
                    static_cast<long long>(cv.t13_z_bound), failures,
                    100.0 * failures / windows);
    }

    std::printf("\nexpected shape: failure rate scales with alpha "
                "(roughly 9 tests x alpha per window);\nthe bounds widen "
                "monotonically as alpha tightens; the hardware block "
                "never changes.\n");
    return 0;
}
