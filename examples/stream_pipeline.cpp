// Streaming example: open-ended continuous monitoring through the
// single-channel loop (core::run_windows).
//
//   $ ./stream_pipeline              # full run
//   $ OTF_SMOKE=1 ./stream_pipeline  # ctest smoke entry
//
// This is the paper's deployment shape with no batch boundary anywhere:
// a degrading TRNG (bias-drift source model) is generated and tested one
// window at a time, the testing block analysing every bit as it is
// produced, and the loop's sink polls verdicts window by window -- the
// MSP430's role -- with an AIS-31-style k-of-w alarm.  The severity
// ramp rides the loop's between-windows hook.  Nothing decides a window
// count up front (the cap is only a safety net); the *sink* ends the
// stream by returning false once the alarm fires.
//
// Exit status checks the contract: the drift must be caught, the alarm
// must come after the onset, and the sink must end the run before the
// safety cap.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include <cstdio>
#include <memory>
#include <string>

using namespace otf;

int main()
{
    const hw::block_config design =
        core::paper_design(16, core::tier::high);

    // A slowly degrading source: the bias walks outward while severity
    // ramps with the window index (one decision per window boundary).
    trng::bias_drift_parameters drift;
    drift.step_bits = 256;
    drift.max_shift_q = 96;
    trng::bias_drift_source source(
        std::make_unique<trng::ideal_source>(2026), 7, drift);
    const std::uint64_t onset = smoke_scaled<std::uint64_t>(6, 2);
    const std::uint64_t ramp = smoke_scaled<std::uint64_t>(8, 2);
    const core::severity_schedule schedule{
        core::severity_schedule::shape::ramp, 1.0, onset, ramp, 0};

    core::monitor mon(design, 0.001);
    core::windowed_alarm alarm(2, 8);

    std::printf("continuous monitoring: %s, alarm = 2-of-8, "
                "drift onset at window %llu\n\n",
                design.name.c_str(),
                static_cast<unsigned long long>(onset));
    std::printf("%-8s %-8s %-8s %s\n", "window", "verdict", "alarm",
                "failing tests");

    const std::uint64_t safety_cap = smoke_scaled<std::uint64_t>(256, 64);
    const std::uint64_t windows = core::run_windows(
        mon, source, safety_cap, core::ingest_lane::span,
        [&](const core::window_report& wr) {
            const bool failed = !wr.software.all_pass;
            const bool alarmed = alarm.record(failed);
            std::string failing;
            for (const core::test_verdict& v : wr.software.verdicts) {
                if (!v.pass) {
                    failing += (failing.empty() ? "" : ", ") + v.name;
                }
            }
            std::printf("%-8llu %-8s %-8s %s\n",
                        static_cast<unsigned long long>(wr.window_index),
                        failed ? "FAIL" : "pass",
                        alarmed ? "ALARM" : "-", failing.c_str());
            return !alarmed; // the sink ends the open-ended stream
        },
        [&](std::uint64_t window) {
            source.set_severity(schedule.severity_at(window));
        });

    std::printf("\nstopped after %llu windows (safety cap %llu)\n",
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(safety_cap));

    if (!alarm.alarm()) {
        std::printf("CONTRACT FAILED: the drift was never caught\n");
        return 1;
    }
    if (windows <= onset) {
        std::printf("CONTRACT FAILED: alarm before the drift onset\n");
        return 1;
    }
    if (windows >= safety_cap) {
        std::printf("CONTRACT FAILED: the sink never ended the run\n");
        return 1;
    }
    std::printf("detected %llu windows after onset\n",
                static_cast<unsigned long long>(windows - onset));
    return 0;
}
