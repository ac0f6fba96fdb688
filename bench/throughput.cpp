// Timing benchmarks (google-benchmark): simulation throughput of the
// hardware model per design point, the software pass, the reference NIST
// battery, and the precomputation of critical values.
//
// These measure the *simulator*, not the hardware (the modelled hardware
// consumes one bit per clock at >100 MHz by construction); they document
// that the repository's experiments run at interactive speed.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "nist/tests.hpp"
#include "trng/sources.hpp"

#include <benchmark/benchmark.h>

using namespace otf;

namespace {

void bm_testing_block_feed(benchmark::State& state)
{
    const auto tier = static_cast<core::tier>(state.range(1));
    const auto cfg =
        core::paper_design(static_cast<unsigned>(state.range(0)), tier);
    trng::ideal_source src(42);
    const bit_sequence seq = src.generate(cfg.n());
    hw::testing_block block(cfg);
    for (auto _ : state) {
        block.run(seq);
        benchmark::DoNotOptimize(block.cusum()->s_final());
        block.restart();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(cfg.n()));
    state.SetLabel(cfg.name);
}

/// One software pass per iteration on the paper design at index
/// range(0) of all_paper_designs().  All eight run: at n = 128 the pass
/// costs more than feeding the window, at n >= 65536 far less.
void bm_software_pass(benchmark::State& state)
{
    const auto cfg =
        core::all_paper_designs().at(static_cast<std::size_t>(state.range(0)));
    trng::ideal_source src(42);
    const bit_sequence seq = src.generate(cfg.n());
    hw::testing_block block(cfg);
    block.run(seq);
    const core::software_runner runner(
        cfg, core::compute_critical_values(cfg, 0.01), block.registers());
    for (auto _ : state) {
        sw16::soft_cpu cpu(16);
        const auto result = runner.run(block.registers(), cpu);
        benchmark::DoNotOptimize(result.all_pass);
    }
    state.SetLabel(cfg.name);
}

void bm_reference_nist_battery(benchmark::State& state)
{
    trng::ideal_source src(42);
    const bit_sequence seq = src.generate(65536);
    for (auto _ : state) {
        benchmark::DoNotOptimize(nist::frequency_test(seq).p_value);
        benchmark::DoNotOptimize(
            nist::block_frequency_test(seq, 4096).p_value);
        benchmark::DoNotOptimize(nist::runs_test(seq).p_value);
        benchmark::DoNotOptimize(
            nist::longest_run_test(seq, 128, 4, 9).p_value);
        benchmark::DoNotOptimize(
            nist::non_overlapping_template_test(seq, 1, 9, 8).p_value);
        benchmark::DoNotOptimize(
            nist::overlapping_template_test(seq, 9, 1024, 5).p_value);
        benchmark::DoNotOptimize(nist::serial_test(seq, 4).p_value1);
        benchmark::DoNotOptimize(
            nist::approximate_entropy_test(seq, 3).p_value);
        benchmark::DoNotOptimize(
            nist::cumulative_sums_test(seq).p_forward);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * 65536);
}

void bm_critical_value_generation(benchmark::State& state)
{
    const auto cfg = core::paper_design(16, core::tier::medium);
    for (auto _ : state) {
        const auto cv = core::compute_critical_values(cfg, 0.01);
        benchmark::DoNotOptimize(cv.t13_z_bound);
    }
}

void bm_entropy_sources(benchmark::State& state)
{
    trng::ideal_source ideal(1);
    trng::markov_source markov(2, 0.6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ideal.next_bit());
        benchmark::DoNotOptimize(markov.next_bit());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2);
}

} // namespace

BENCHMARK(bm_testing_block_feed)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({20, 0})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_software_pass)->DenseRange(0, 7);
BENCHMARK(bm_reference_nist_battery)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_critical_value_generation);
BENCHMARK(bm_entropy_sources);
