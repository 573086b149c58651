#!/usr/bin/env bash
# Tier-1 gate: configure, build (library warnings are errors), run the full
# CTest suite, then one quick benchmark sanity pass.
#
#   tools/ci.sh [build-dir]     (default: build-ci)
#
# CI_SANITIZE=1 appends a second configure/build/ctest pass with ASan+UBSan
# (catches lifetime bugs like the pre-Session dangling-topology hazard).
#
# CI_TSAN=1 appends a ThreadSanitizer pass over the threaded subsystem's
# tests (test_sim, test_live_update, test_lint's soundness checks) at 2 and
# 8 workers — the race-detection lane for the sharded engine. Benign-race
# suppressions, if ever needed, live in tsan.supp with justifications.
#
# Exits non-zero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure (${BUILD_DIR}, -Werror for src/) =="
cmake -B "${BUILD_DIR}" -S . -DSNAP_WERROR=ON -DCMAKE_BUILD_TYPE=Release

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" -j "${JOBS}" --output-on-failure

echo "== bench sanity =="
if [[ -x "${BUILD_DIR}/bench_micro" ]]; then
  "${BUILD_DIR}/bench_micro" --benchmark_min_time=0.01
else
  # google-benchmark was unavailable at configure time; the phase bench is
  # a plain binary and doubles as a serial-vs-parallel consistency check.
  "${BUILD_DIR}/bench_table6_phases" --threads 2
fi

echo "== scenario bench (event latency < cold start) =="
"${BUILD_DIR}/bench_table4_scenarios" --switches 24 --reps 2

echo "== xfdd cache effectiveness (memoized vs naive, counter-based) =="
# Gates: (a) memoized P2 needs >= 5x fewer node expansions than the
# cache-disabled engine on the diamond stress policy, with byte-identical
# digests across memoized/naive and serial/parallel; (b) the 11-policy
# corpus shows a nonzero cache hit rate and warm recompiles come entirely
# from the tables. Counter-based, so it holds on a 1-core container.
"${BUILD_DIR}/bench_ablation_xfdd" --depth 12 --check

echo "== burst-classifier vectorization gate (batch_classify.cpp at -O2) =="
# The burst datapath's column kernels must auto-vectorize at plain -O2 with
# no intrinsics (the TU is kept free of other code so this report is
# precise). Requires at least the exact/mask/ff kernels — 3 "loop
# vectorized" lines; a baseline-ISA regression (e.g. reintroducing a
# 64-bit vector compare) drops below that.
VEC_LINES="$(g++ -O2 -std=c++20 -Isrc -fopt-info-vec-optimized \
  -c src/netasm/batch_classify.cpp -o /dev/null 2>&1 |
  grep -c 'loop vectorized' || true)"
if [[ "${VEC_LINES}" -lt 3 ]]; then
  echo "ERROR: batch_classify.cpp only reports ${VEC_LINES} vectorized" \
       "loops at -O2 (want >= 3) — the burst kernels regressed to scalar" >&2
  exit 1
fi
echo "vectorizer reports ${VEC_LINES} vectorized loops"

echo "== data-plane throughput (sharded engine vs serial, equivalence gate) =="
# Gates: the deterministic sharded engine's deliveries and final state are
# byte-identical to the serial per-packet path across the 11-policy corpus
# and a >=100k-packet composite run, with nonzero state churn and
# deliveries, and the burst pipeline's steady state performs zero heap
# allocation. Emits BENCH_throughput.json at the REPO ROOT (pps per
# execution mode, packets, workers, cores, burst, per-mode allocs) — the
# perf trajectory the collector reads and subsequent PRs regress against.
# An empty or missing file is a hard failure: a silent non-emission is how
# the trajectory stayed [] for a whole PR cycle.
#
# Perf floor: read the committed file's pps BEFORE the bench overwrites
# it; a fresh run on the same core count must reach >= 80% of it (median
# of 3) for the serial, deterministic (head-of-line admission), confined
# single-worker, and free_running (the run-to-completion burst loop)
# modes, so a datapath regression in any execution mode fails the gate
# instead of silently rewriting the trajectory. Skipped per key when the committed
# file predates it, and entirely when the core count differs
# (cross-machine numbers are not comparable).
COMMITTED_JSON="$(git show HEAD:BENCH_throughput.json 2>/dev/null || true)"
"${BUILD_DIR}/bench_throughput" --check --workers 2 --repeat 3 \
  --json BENCH_throughput.json
if [[ ! -s BENCH_throughput.json ]]; then
  echo "ERROR: bench_throughput emitted no BENCH_throughput.json at the" \
       "repo root" >&2
  exit 1
fi
grep -q '"pps"' BENCH_throughput.json || {
  echo "ERROR: BENCH_throughput.json is malformed (no pps block)" >&2
  exit 1
}
# The schema additions of the burst datapath must be present.
for field in '"cores"' '"burst"' '"allocs"' '"dispatch_share"' \
             '"stats_last_run"'; do
  grep -q "${field}" BENCH_throughput.json || {
    echo "ERROR: BENCH_throughput.json lacks the ${field} field" >&2
    exit 1
  }
done
# The live-update phase (events adopted under load via run_live's epoch
# swap) must have run and reported its latencies.
grep -q '"event_latency"' BENCH_throughput.json || {
  echo "ERROR: BENCH_throughput.json is malformed (no event_latency" \
       "block — the live-update bench phase did not run)" >&2
  exit 1
}
json_num() {  # json_num <json-string> <key> — first numeric value of key
  # "|| true": under pipefail a missing key (grep exit 1) must yield an
  # empty string, not kill the gate — the committed file legitimately lacks
  # new schema fields the first time they are introduced.
  printf '%s' "$1" | grep -o "\"$2\":[0-9.]*" | head -1 | cut -d: -f2 || true
}
OLD_CORES="$(json_num "${COMMITTED_JSON}" cores)"
NEW_CORES="$(json_num "$(cat BENCH_throughput.json)" cores)"
if [[ -n "${OLD_CORES}" && "${OLD_CORES}" == "${NEW_CORES}" ]]; then
  for key in serial deterministic deterministic_confined_w1 \
             free_running; do
    OLD_PPS="$(json_num "${COMMITTED_JSON}" "${key}")"
    NEW_PPS="$(json_num "$(cat BENCH_throughput.json)" "${key}")"
    if [[ -n "${OLD_PPS}" && -n "${NEW_PPS}" ]]; then
      if awk -v n="${NEW_PPS}" -v o="${OLD_PPS}" \
           'BEGIN { exit !(n < 0.8 * o) }'; then
        echo "ERROR: ${key} datapath regressed: ${NEW_PPS} pps <" \
             "80% of committed ${OLD_PPS} pps (same ${NEW_CORES}-core" \
             "machine)" >&2
        exit 1
      fi
      echo "perf floor ok: ${key} ${NEW_PPS} vs committed ${OLD_PPS} pps"
    else
      echo "perf floor skipped for ${key} (committed file lacks the key)"
    fi
  done
else
  echo "perf floor skipped (committed cores='${OLD_CORES}'," \
       "current cores='${NEW_CORES}')"
fi

echo "== telemetry overhead gates (compiled-in-disabled / sampled tracing) =="
# The bench times each telemetry configuration back-to-back with its plain
# twin and reports the BEST PER-PAIR RATIO (overhead block) — load noise
# is one-sided, so the max over adjacent pairs is the least-noise estimate
# and a real regression (which depresses every pair) still trips the
# floor. Ratios of independent medians are useless on a shared box:
#   disarmed_over_serial      >= 0.95 — hooks compiled in but disarmed
#     (a bound ThreadBuf with both disciplines off: every hook pays its
#     thread-local load and not-taken branch) on the hottest serial path.
#   traced_over_deterministic >= 0.90 — 1-in-1024 packet sampling on the
#     sharded engine.
NEW_JSON="$(cat BENCH_throughput.json)"
gate_ratio() {  # gate_ratio <ratio-key> <min> <label>
  local ratio
  ratio="$(json_num "${NEW_JSON}" "$1")"
  if [[ -z "${ratio}" ]]; then
    echo "ERROR: BENCH_throughput.json lacks the $1 overhead ratio" \
         "(telemetry bench phase did not run)" >&2
    exit 1
  fi
  if awk -v x="${ratio}" -v r="$2" 'BEGIN { exit !(x < r) }'; then
    echo "ERROR: $3: $1 = ${ratio} < $2" >&2
    exit 1
  fi
  echo "overhead ok: $1 = ${ratio} (floor $2)"
}
gate_ratio disarmed_over_serial 0.95 "disarmed telemetry hooks too expensive"
gate_ratio traced_over_deterministic 0.90 "packet sampling too expensive"

echo "== telemetry smoke (--profile --trace --metrics artifacts parse) =="
OBS_DIR="${BUILD_DIR}/obs-smoke"
mkdir -p "${OBS_DIR}"
cat > "${OBS_DIR}/net.topo" <<'EOF'
switches 4
link 0 1 10
link 1 2 10
link 2 3 10
port 1 0
port 2 1
port 3 2
port 4 3
name obs-smoke-line
EOF
"${BUILD_DIR}/snapc" --policy policies/stateful_firewall.snap \
    --topology "${OBS_DIR}/net.topo" --const threshold=10 \
    --simulate 20000 --workers 2 --profile \
    --trace "${OBS_DIR}/trace.json" --trace-sample 64 \
    --metrics "${OBS_DIR}/metrics.prom" --quiet
[[ -s "${OBS_DIR}/trace.json" && -s "${OBS_DIR}/metrics.prom" ]] || {
  echo "ERROR: snapc --trace/--metrics produced empty artifacts" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "${OBS_DIR}/trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert evs, "empty traceEvents"
stacks, prev = {}, {}
for e in evs:
    if e["ph"] == "M":
        continue
    tid, ts = e["tid"], float(e["ts"])
    assert ts >= prev.get(tid, 0.0), f"non-monotonic ts on tid {tid}"
    prev[tid] = ts
    if e["ph"] == "B":
        stacks.setdefault(tid, []).append(e["name"])
    elif e["ph"] == "E":
        assert stacks.get(tid), f"unmatched E on tid {tid}"
        stacks[tid].pop()
assert not any(stacks.values()), f"unclosed spans: {stacks}"
print(f"trace ok: {len(evs)} events, matched B/E, monotonic per-tid")
EOF
else
  grep -q '"traceEvents"' "${OBS_DIR}/trace.json" || {
    echo "ERROR: trace.json lacks traceEvents" >&2
    exit 1
  }
  echo "trace ok (python3 unavailable; shallow check only)"
fi
for series in snap_engine_pps snap_engine_packets_total \
              snap_ring_occupancy_hwm snap_epoch_stall_total; do
  grep -q "^${series}" "${OBS_DIR}/metrics.prom" || {
    echo "ERROR: metrics.prom lacks the ${series} series" >&2
    exit 1
  }
done
grep -q '^# TYPE snap_engine_pps gauge' "${OBS_DIR}/metrics.prom" || {
  echo "ERROR: metrics.prom lacks prometheus TYPE lines" >&2
  exit 1
}
echo "metrics ok: $(grep -c '^# TYPE' "${OBS_DIR}/metrics.prom") families"

echo "== snap-lint corpus gate (snapc --lint --json on every policy file) =="
# Every Appendix-F policy must lint with zero error-severity findings
# (snapc exits 5 otherwise), and the four known unbounded-state exemplars
# must keep their SL300 warning — losing one silently would mean the
# analysis stopped seeing through their guard structure.
LINT_DIR="${BUILD_DIR}/lint-gate"
mkdir -p "${LINT_DIR}"
cat > "${LINT_DIR}/net.topo" <<'EOF'
switches 4
link 0 1 10
link 1 2 10
link 2 3 10
port 1 0
port 2 1
port 3 2
port 4 3
name lint-gate-line
EOF
for pol in policies/*.snap; do
  name="$(basename "${pol}" .snap)"
  out="${LINT_DIR}/${name}.json"
  "${BUILD_DIR}/snapc" --policy "${pol}" --topology "${LINT_DIR}/net.topo" \
      --const threshold=10 --lint --json --quiet > "${out}"
  grep -q '"errors":0' "${out}" || {
    echo "ERROR: lint reported error findings for ${name}" >&2
    exit 1
  }
done
for name in super_spreader heavy_hitter stateful_firewall sidejacking; do
  grep -q '"rule":"SL300"' "${LINT_DIR}/${name}.json" || {
    echo "ERROR: ${name} lost its expected SL300 unbounded-state warning" >&2
    exit 1
  }
done

echo "== conflict-mask soundness gate (corrupted mask must trip the check) =="
# The engine's dynamic cross-check (sim/soundness.h) must fire when a
# variable is punched out of the dispatched masks (the PR-5 bug class,
# reintroduced via EngineOptions::corrupt_soundness_var) and stay silent on
# intact masks; the static SL500 half is exercised alongside.
"${BUILD_DIR}/test_lint" \
  --gtest_filter='SoundnessCheck.*:LintMaskSoundness.*'

echo "== clang-tidy (advisory) =="
# bugprone-*/concurrency-*/performance-* per .clang-tidy, against the
# compile_commands.json the configure step exported. Advisory: findings are
# printed but never fail the gate.
if command -v clang-tidy >/dev/null 2>&1; then
  find src tools -name '*.cpp' -print0 |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p "${BUILD_DIR}" --quiet ||
    echo "clang-tidy reported findings (advisory, not gating)"
else
  echo "clang-tidy not installed; skipping (advisory step)"
fi

if [[ "${CI_TSAN:-0}" == "1" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  echo "== tsan configure (${TSAN_DIR}, ThreadSanitizer) =="
  cmake -B "${TSAN_DIR}" -S . -DSNAP_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "== tsan build =="
  cmake --build "${TSAN_DIR}" -j "${JOBS}" \
    --target test_sim test_live_update test_lint
  echo "== tsan race lane (sharded engine at 1/2/8 workers) =="
  # test_sim and test_live_update sweep the deterministic engine across
  # worker counts {1,2,8} and live-update epoch swaps; test_lint's
  # soundness suite adds the mask cross-check under threads. halt_on_error
  # turns any report into a failing exit; suppressions (each justified)
  # come from tsan.supp.
  export TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/tsan.supp"
  "${TSAN_DIR}/test_sim"
  "${TSAN_DIR}/test_live_update"
  "${TSAN_DIR}/test_lint" --gtest_filter='SoundnessCheck.*'
  unset TSAN_OPTIONS
fi

if [[ "${CI_SANITIZE:-0}" == "1" ]]; then
  SAN_DIR="${BUILD_DIR}-asan"
  echo "== sanitize configure (${SAN_DIR}, ASan+UBSan) =="
  cmake -B "${SAN_DIR}" -S . -DSNAP_SANITIZE=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "== sanitize build =="
  cmake --build "${SAN_DIR}" -j "${JOBS}"
  echo "== sanitize ctest =="
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir "${SAN_DIR}" -j "${JOBS}" --output-on-failure
fi

echo "== tier-1 gate passed =="
