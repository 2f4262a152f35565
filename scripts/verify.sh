#!/usr/bin/env bash
# Build + test the three correctness presets in one command:
#
#   default  RelWithDebInfo, the full suite (tier-1 gate)
#   asan     Debug + ASan/UBSan, the full suite
#   tsan     RelWithDebInfo + TSan, the concurrency-sensitive subset
#            (thread pool, engine determinism, trace/stats)
#
# All three presets configure PIMNW_WERROR=ON, so a compiler warning fails
# the build.
#
# Each preset also runs the "trace" ctest label explicitly, so the
# observability layer (util/trace, core/stats) is exercised under every
# sanitizer even if the preset's default filter would skip part of it.
#
# Each preset also runs the "prof" ctest label (the cycle-attribution
# profiler of DESIGN.md §12), and the default preset smoke-runs the
# pimnw_prof example on both registered kernels (nw and wfa).
#
# The default preset also smoke-runs the dpu_hello example, the tree's
# write-your-own-kernel walkthrough: a parallel sum on the 64 simulated DPUs
# of one rank, which exits 0 only when every DPU's sum is right.
#
# Each preset also runs the "16s" ctest label (persistent-database sessions,
# DESIGN.md §13): bit-identity of the session path, the exactly-once tiling
# property, the streaming reduction and the bounded-footprint reset.
#
# Each preset also runs the "wfa_kernel" ctest label (the PiM-WFA kernel
# behind the PimKernel interface, DESIGN.md §16): cross-kernel agreement
# matrix, bit-identity against host wfa_align/wfa_score, profiler
# reconciliation for both kernels, session rounds, scratch-planner
# monotonicity and admission.
#
# Each preset also runs the "serve" ctest label (the streaming alignment
# service, DESIGN.md §14): submit/coalesce bit-identity, the nearest-rank
# quantile helpers, admission-window and backpressure edge cases — the label
# is in the tsan preset's filter on purpose, the service is the most
# concurrency-dense layer in the tree. The service keeps no latency samples
# of its own; the default preset smoke-runs the pimnw_serve example and
# checks (with python3) that the exact quantiles it computes from its own
# ServiceResults are present, count every completed request, and are
# ordered p50 <= p90 <= p99 <= max.
#
# Each preset also runs the "metrics" ctest label (production telemetry,
# DESIGN.md §17): registry bucket arithmetic and merge associativity,
# exposition purity, the scrape-while-recording hammer (tsan's reason to
# care), a silent client that must not block the endpoint's stop(), the
# flight recorder's armed black box, and the reconciliation of the engine's
# registry series with a run's launch records and RunReport. The default
# preset also smoke-runs pimnw_serve --metrics-port 0 and curls /metrics +
# /healthz, checking the instrumented families are actually exposed under
# load — including the byte counters perfbench reads through a
# get-or-create lookup, which would silently read 0 after a rename.
#
# Each preset also checks the symbols of every compiled copy of the per-ISA
# sweep TU (src/core/kernel_simd_sweep.cpp, one object per ISA, in
# pimnw_sweep_<isa>.dir; every build has at least the portable one, so
# finding none fails): an object must define its two entry points,
# vector_band_run<N, int> and vector_band_run<N, short> (the 32-bit and the
# 16-bit lanes; N = 4, 8 or 16 for the portable, AVX2 and AVX-512 copy),
# and no other global or weak symbol. An inline helper the TU called out of
# line would be a weak symbol (in the Debug asan build, say), and the
# linker could hand its AVX-512 copy to a caller on a CPU without AVX-512.
# The one compiler-emitted weak datum allowed is
# DW.ref.__gxx_personality_v0, the hidden pointer to the C++ personality
# routine that the sanitizers' unwind cleanups reference; it carries no ISA
# code.
#
# The default preset also smoke-runs a command-line error: quickstart
# --bogus 1 must exit 2 and name the flag (util::Cli prints the error and
# the usage instead of throwing out of main). It also smoke-runs a backend
# kind the program does not register: pimnw_trace --backend pimwfa must
# exit 1 and name the value, not abort in the dispatcher.
#
# A --tidy flag adds a clang-tidy pass (the .clang-tidy profile) over the
# core orchestration and simulator sources; it is skipped with a notice when
# clang-tidy is not installed, so the stage is safe to request everywhere.
#
# The default preset also runs the parallel-sweep bit-identity smoke
# (host_throughput --identity-smoke): the engine on 1 and 2 workers vs the
# serial schedule, 1 worker at batch_window 1 (DESIGN.md §15) — the cheap
# standing guard that the data-parallel DPU sweep never perturbs modeled
# results.
#
# The default preset also runs the repository benchmark's self-test
# (python3 perfbench/run.py --self-test): it builds perfbench/driver.cpp
# against this checkout's src/ — so a library change that breaks the
# benchmark driver fails here, not only in the benchmark pipeline — then
# runs the driver's unit checks and matches its metric names against
# BENCHMARK.json.
#
# A --bench flag adds the benchmark regression gate: re-run the
# BENCH_kernel.json, BENCH_16s.json, BENCH_serve.json, BENCH_host.json and
# BENCH_backend.json producers (micro_kernels timing emitter, bench_16s,
# serve_bench, host_throughput, backend_bench) into a temporary directory
# and compare against the committed baselines with scripts/bench_diff.py
# (direction-aware, 20% tolerance; provenance/machine/scaling subtrees
# skipped as machine-dependent).
#
# Usage: scripts/verify.sh [--tidy] [--bench] [preset ...]
#        (default presets: default asan tsan)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_TIDY=0
RUN_BENCH=0
PRESETS=()
for arg in "$@"; do
  if [ "$arg" = "--tidy" ]; then
    RUN_TIDY=1
  elif [ "$arg" = "--bench" ]; then
    RUN_BENCH=1
  else
    PRESETS+=("$arg")
  fi
done
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default asan tsan)
fi

JOBS=$(nproc 2>/dev/null || echo 4)

if [ "$RUN_TIDY" -eq 1 ]; then
  echo "=== [tidy] clang-tidy over src/core src/upmem"
  if command -v clang-tidy >/dev/null 2>&1; then
    # compile_commands.json comes from the default preset's configure.
    cmake --preset default >/dev/null
    clang-tidy -p build --quiet src/core/*.cpp src/upmem/*.cpp
  else
    echo "=== [tidy] clang-tidy not installed — skipping (config: .clang-tidy)"
  fi
fi

for preset in "${PRESETS[@]}"; do
  BUILD_DIR="build$([ "$preset" = default ] || echo "-$preset")"
  echo "=== [$preset] configure"
  cmake --preset "$preset" >/dev/null
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] sweep TU symbols"
  SWEEP_OBJS=$(find "$BUILD_DIR" -name 'kernel_simd_sweep.cpp.o' | sort)
  if [ -z "$SWEEP_OBJS" ]; then
    echo "no band sweep objects in $BUILD_DIR (the portable one is missing)"
    exit 1
  fi
  for obj in $SWEEP_OBJS; do
    case "$obj" in
      */pimnw_sweep_portable.dir/*) LANES=4 ;;
      */pimnw_sweep_avx2.dir/*) LANES=8 ;;
      */pimnw_sweep_avx512.dir/*) LANES=16 ;;
      *) echo "$obj is no known copy of the band sweep"; exit 1 ;;
    esac
    GLOBALS=$(nm -C --defined-only "$obj" | awk '$2 ~ /^[A-Zu]$/')
    EXTRA=$GLOBALS
    for LANE in int short; do
      ENTRY=" pimnw::core::simd::vector_band_run<$LANES, $LANE>"
      ENTRY+="(pimnw::core::simd::BandRun<$LANE>&)"
      if ! grep -q -F -- "$ENTRY" <<<"$GLOBALS"; then
        echo "$obj does not define its entry point" \
            "vector_band_run<$LANES, $LANE>"
        exit 1
      fi
      EXTRA=$(grep -v -F -- "$ENTRY" <<<"$EXTRA" || true)
    done
    EXTRA=$(grep -v -E ' DW\.ref\.__gxx_personality_v0$' <<<"$EXTRA" || true)
    if [ -n "$EXTRA" ]; then
      echo "$obj defines global or weak symbols beyond its entry points:"
      echo "$EXTRA"
      exit 1
    fi
  done
  echo "=== [$preset] ctest"
  ctest --preset "$preset" -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L trace"
  ctest --test-dir "$BUILD_DIR" -L trace -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L prof"
  ctest --test-dir "$BUILD_DIR" -L prof -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L 16s"
  ctest --test-dir "$BUILD_DIR" -L 16s -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L serve"
  ctest --test-dir "$BUILD_DIR" -L serve -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L wfa_kernel"
  ctest --test-dir "$BUILD_DIR" -L wfa_kernel -j "$JOBS" --output-on-failure
  echo "=== [$preset] ctest -L metrics"
  ctest --test-dir "$BUILD_DIR" -L metrics -j "$JOBS" --output-on-failure
  if [ "$preset" = default ]; then
    echo "=== [$preset] command-line error smoke"
    CLI_STATUS=0
    "$BUILD_DIR/examples/quickstart" --bogus 1 >/dev/null \
        2>"$BUILD_DIR/cli_smoke.err" || CLI_STATUS=$?
    if [ "$CLI_STATUS" -ne 2 ] ||
        ! grep -q -- 'unknown flag --bogus' "$BUILD_DIR/cli_smoke.err"; then
      echo "quickstart --bogus 1 exited $CLI_STATUS (want 2, naming the flag):"
      cat "$BUILD_DIR/cli_smoke.err"
      exit 1
    fi
    echo "=== [$preset] unregistered backend smoke"
    CLI_STATUS=0
    "$BUILD_DIR/examples/pimnw_trace" --backend pimwfa --pairs 8 \
        --length 200 >/dev/null 2>"$BUILD_DIR/cli_smoke.err" || CLI_STATUS=$?
    if [ "$CLI_STATUS" -ne 1 ] ||
        ! grep -q -- 'unknown --backend pimwfa' "$BUILD_DIR/cli_smoke.err"; then
      echo "pimnw_trace --backend pimwfa exited $CLI_STATUS (want 1, naming" \
          "the value):"
      cat "$BUILD_DIR/cli_smoke.err"
      exit 1
    fi
    echo "=== [$preset] dpu_hello smoke"
    "$BUILD_DIR/examples/dpu_hello" >/dev/null
    echo "=== [$preset] pimnw_prof smoke"
    "$BUILD_DIR/examples/pimnw_prof" --pairs 96 --length 300 >/dev/null
    echo "=== [$preset] pimnw_prof smoke (wfa kernel)"
    "$BUILD_DIR/examples/pimnw_prof" --kernel wfa --pairs 96 --length 300 \
        >/dev/null
    echo "=== [$preset] pimnw_serve smoke"
    "$BUILD_DIR/examples/pimnw_serve" --pairs 128 --length 200 --clients 2 \
        --json-out "$BUILD_DIR/serve_metrics.json" >/dev/null
    python3 - "$BUILD_DIR/serve_metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("queue_wait_ms", "total_latency_ms"):
    block = report[key]
    assert block["p50"] <= block["p90"] <= block["p99"] <= block["max"], \
        f"{key} quantiles out of order: {block}"
assert report["total_latency_ms"]["count"] == report["completed"], \
    "total_latency_ms.count != completed"
assert report["queue_wait_ms"]["count"] == report["completed"], \
    "queue_wait_ms.count != completed"
PY
    echo "=== [$preset] pimnw_serve /metrics scrape smoke"
    SERVE_LOG="$BUILD_DIR/serve_scrape_smoke.log"
    "$BUILD_DIR/examples/pimnw_serve" --pairs 4096 --length 300 --clients 2 \
        --metrics-port 0 \
        --json-out "$BUILD_DIR/serve_scrape_smoke.json" > "$SERVE_LOG" &
    SERVE_PID=$!
    # The ephemeral port is printed (and flushed) before the load starts.
    SERVE_PORT=""
    for _ in $(seq 1 100); do
      SERVE_PORT=$(sed -n 's/^metrics listening on port \([0-9]*\)$/\1/p' \
          "$SERVE_LOG")
      [ -n "$SERVE_PORT" ] && break
      sleep 0.1
    done
    if [ -z "$SERVE_PORT" ]; then
      echo "pimnw_serve never reported a metrics port"; kill "$SERVE_PID"
      exit 1
    fi
    curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" | grep -q ok
    # Scrape until every instrumented family has registered (the first flush
    # through the PiM backend registers the engine/pool/MRAM series).
    SCRAPE_OK=0
    for _ in $(seq 1 60); do
      SCRAPE=$(curl -sf "http://127.0.0.1:$SERVE_PORT/metrics" || true)
      MISSING=0
      for family in pimnw_service_queue_depth \
          pimnw_service_admitted_pairs_total \
          pimnw_service_total_latency_seconds \
          pimnw_service_slo_burn_rate \
          pimnw_dispatch_routed_pairs_total \
          pimnw_engine_launches_total \
          pimnw_engine_bytes_to_dpus_total \
          pimnw_engine_bytes_from_dpus_total \
          pimnw_engine_dpu_cycles_total \
          pimnw_pool_tasks_executed_total \
          pimnw_mram_chunks_live; do
        echo "$SCRAPE" | grep -q "^# TYPE $family " || { MISSING=1; break; }
      done
      if [ "$MISSING" -eq 0 ]; then SCRAPE_OK=1; break; fi
      kill -0 "$SERVE_PID" 2>/dev/null || break
      sleep 0.2
    done
    if [ "$SCRAPE_OK" -ne 1 ]; then
      echo "live /metrics scrape is missing instrumented families"
      kill "$SERVE_PID" 2>/dev/null || true
      exit 1
    fi
    wait "$SERVE_PID"
    echo "=== [$preset] parallel-sweep bit-identity smoke (threads 2 vs 1)"
    cmake --build --preset default -j "$JOBS" --target host_throughput \
        >/dev/null
    "$BUILD_DIR/bench/host_throughput" --identity-smoke
    echo "=== [$preset] perfbench driver self-test"
    python3 perfbench/run.py --self-test
  fi
done

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "=== [bench] rebuild micro_kernels + bench_16s + serve_bench (default preset)"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target micro_kernels bench_16s serve_bench
  BENCH_TMP=$(mktemp -d)
  trap 'rm -rf "$BENCH_TMP"' EXIT
  echo "=== [bench] regenerate BENCH_kernel.json (timing emitter only)"
  ROOT=$(pwd)
  (cd "$BENCH_TMP" && "$ROOT/build/bench/micro_kernels" \
      --benchmark_filter='^$' >/dev/null)
  echo "=== [bench] diff vs committed baseline"
  python3 scripts/bench_diff.py BENCH_kernel.json \
      "$BENCH_TMP/BENCH_kernel.json"
  echo "=== [bench] regenerate BENCH_16s.json (session vs re-dispatch)"
  "$ROOT/build/bench/bench_16s" --out "$BENCH_TMP/BENCH_16s.json" >/dev/null
  echo "=== [bench] diff vs committed baseline"
  python3 scripts/bench_diff.py BENCH_16s.json "$BENCH_TMP/BENCH_16s.json"
  echo "=== [bench] regenerate BENCH_serve.json (streaming service)"
  "$ROOT/build/bench/serve_bench" --out "$BENCH_TMP/BENCH_serve.json" >/dev/null
  echo "=== [bench] diff vs committed baseline"
  python3 scripts/bench_diff.py BENCH_serve.json "$BENCH_TMP/BENCH_serve.json"
  echo "=== [bench] regenerate BENCH_host.json (host path + scaling curve)"
  cmake --build --preset default -j "$JOBS" --target host_throughput
  "$ROOT/build/bench/host_throughput" --out "$BENCH_TMP/BENCH_host.json" \
      >/dev/null
  echo "=== [bench] diff vs committed baseline"
  python3 scripts/bench_diff.py BENCH_host.json "$BENCH_TMP/BENCH_host.json"
  echo "=== [bench] regenerate BENCH_backend.json (4-backend dispatch)"
  cmake --build --preset default -j "$JOBS" --target backend_bench
  "$ROOT/build/bench/backend_bench" --out "$BENCH_TMP/BENCH_backend.json" \
      >/dev/null
  echo "=== [bench] diff vs committed baseline"
  python3 scripts/bench_diff.py BENCH_backend.json \
      "$BENCH_TMP/BENCH_backend.json"
fi

echo "verify.sh: all presets green (${PRESETS[*]})"
