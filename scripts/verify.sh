#!/usr/bin/env sh
# Tier-1 verify: configure, build, and run the full ctest suite, then the
# fleet-throughput, scenario-matrix and stream-throughput smoke runs (the
# span-lane/fleet, scenario and channel-loop subsystems must never
# bit-rot silently, so they run explicitly even outside ctest).  The
# benches drop their BENCH_*.json telemetry into the build directory
# (docs/BENCHMARKS.md); the files are validated as JSON when python3 is
# available.
# Usage: scripts/verify.sh [build-dir] [extra cmake args...]
set -eu

BUILD_DIR="${1:-build}"
[ "$#" -gt 0 ] && shift

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure

echo "== fleet bench smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_fleet_throughput

echo "== scenario matrix smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_scenario_matrix

echo "== stream throughput smoke (OTF_SMOKE=1) =="
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_stream_throughput

echo "== escalation supervisor smoke (OTF_SMOKE=1) =="
# Exercises the --bench-dir= flag (shared by every JSON-writing bench)
# instead of OTF_BENCH_DIR; exit status enforces the escalate/confirm/
# null-silent contract.
OTF_SMOKE=1 "$BUILD_DIR"/bench/bench_escalation --bench-dir="$BUILD_DIR"

echo "== population fleet smoke (OTF_SMOKE=1) =="
# Sharded fleet-of-fleets: exit status enforces detections, full queue
# delivery, and same_counters determinism across shard/thread layouts.
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_population

echo "== replay / durable telemetry smoke (OTF_SMOKE=1) =="
# Supervised attack with the telemetry WAL attached, then a replay pass:
# exit status enforces clean recovery, zero drops and bit-identical
# confirmation verdicts (docs/ARCHITECTURE.md, durable telemetry).
OTF_SMOKE=1 OTF_BENCH_DIR="$BUILD_DIR" "$BUILD_DIR"/bench/bench_replay

echo "== offline replay of the just-written segment =="
# The CLI must reach the same verdict as the in-process replay above.
"$BUILD_DIR"/tools/otf_replay "$BUILD_DIR"/BENCH_replay.wal --quiet

if command -v python3 >/dev/null 2>&1; then
    echo "== validating BENCH_*.json =="
    for f in "$BUILD_DIR"/BENCH_fleet.json "$BUILD_DIR"/BENCH_scenarios.json \
             "$BUILD_DIR"/BENCH_stream.json "$BUILD_DIR"/BENCH_escalation.json \
             "$BUILD_DIR"/BENCH_population.json "$BUILD_DIR"/BENCH_replay.json; do
        python3 -m json.tool "$f" >/dev/null
        echo "ok: $f"
    done

    echo "== validating otf-fleet-bench/4 schema =="
    # The fleet bench must report the /4 schema: the one-worker block
    # (fused span vs fused 64x64 tile) next to the lane and scaling axes
    # (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_fleet.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-fleet-bench/4", doc["schema"]
assert "execution" not in doc and "word_mbps" not in doc, sorted(doc)
one = doc["one_worker"]
assert one["threads"] == 1, one
assert one["tile_words"] == 64, one
for key in ("fused_span_mbps", "fused_tile_mbps", "fused_tile_over_span"):
    assert one[key] > 0, (key, one)
print("ok: otf-fleet-bench/4 (fused tile %.2fx fused span)"
      % one["fused_tile_over_span"])
EOF

    echo "== validating otf-population/3 schema =="
    # The population bench must report the /3 schema: the execution
    # block with the work-stealing scheduler's telemetry, per-shard rows
    # without the retired stall and wall-clock fields, and the layout
    # sweep (including the per-bit lane run) deterministic.
    python3 - "$BUILD_DIR"/BENCH_population.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-population/3", doc["schema"]
assert doc["deterministic_across_layouts"] is True
exe = doc["execution"]
assert exe["model"] == "fused", exe
assert exe["lane"] == "span", exe
assert exe["worker_threads"] > 0, exe
assert exe["steal_batch_devices"] > 0, exe
assert exe["telemetry_flushes"] > 0, exe
for shard in doc["shards"]:
    for key in ("producer_stalls", "consumer_stalls", "seconds"):
        assert key not in shard, (key, shard)
print("ok: otf-population/3 (%d workers, %d steals, %d flushes)"
      % (exe["worker_threads"], exe["steals"], exe["telemetry_flushes"]))
EOF

    echo "== validating otf-stream-bench/5 schema =="
    # The stream bench must report the /5 schema: the channel loop's span
    # lane against its per-bit lane and the generation axis with all six
    # adversarial models; the retired streamed-channel and batch-sweep
    # fields must be gone (docs/BENCHMARKS.md).
    python3 - "$BUILD_DIR"/BENCH_stream.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "otf-stream-bench/5", doc["schema"]
assert doc["per_bit_mwords_per_s"] > 0, doc["per_bit_mwords_per_s"]
assert doc["span_over_per_bit"] > 0, doc["span_over_per_bit"]
models = [g["model"] for g in doc["generation"]]
expected = {"rtn", "bias_drift", "lockin", "fault", "entropy_collapse",
            "substitution"}
assert set(models) == expected and len(models) == 6, models
for key in ("streamed_mwords_per_s", "streamed_over_fused",
            "zero_copy_windows", "channel_ring", "batch_sweep"):
    assert key not in doc, key
print("ok: otf-stream-bench/5 (%d generation models, span %.2fx per-bit)"
      % (len(models), doc["span_over_per_bit"]))
EOF
fi

echo "== Release perf guard: fused tile vs fused span fleet lane =="
# A separate Release build runs the fleet bench with the enforcement
# flag: on a single worker the fused 64x64 tile lane must not fall
# behind the fused span lane (coarse >= 1.0x bar on this smoke run; full
# runs with the flag enforce >= 3x).
PERF_DIR="$BUILD_DIR-perfguard"
cmake -B "$PERF_DIR" -S "$(dirname "$0")/.." -DCMAKE_BUILD_TYPE=Release \
    -DOTF_BUILD_EXAMPLES=OFF
cmake --build "$PERF_DIR" -j "$JOBS" --target bench_fleet_throughput
OTF_SMOKE=1 OTF_ENFORCE_FUSED_BAR=1 OTF_BENCH_DIR="$PERF_DIR" \
    "$PERF_DIR"/bench/bench_fleet_throughput
