#!/usr/bin/env bash
# Full CI pipeline:
#   1. Release build + tier-1 ctest suite.
#   2. Sanitize build (ASan + UBSan) + tier-1 ctest suite, via
#      tools/run_sanitized_tests.sh.
#   3. Static analysis gate: `artemisc check --analyze --json` must come out
#      clean (exit 0) for every shipped example spec — including the
#      EXPERIMENTS.md charge grid — and must FAIL (exit 1) for every fixture
#      under examples/specs/bad/, each reporting its headline ART0xx code
#      under the deployment axes that trigger it. The hot-swap gate
#      (`check --spec2`, ART015/ART016) runs the same way over the swap
#      fixtures and an infeasible swap window.
#   4. Golden-trace gate: `artemisc trace` of the health app under 6-minute
#      charging must be byte-identical to tests/golden/trace/health_6min.jsonl
#      (checked with `artemisc trace diff`); likewise `artemisc forensics
#      dump` must reproduce tests/golden/flight/health_6min.jsonl, and
#      `artemisc forensics audit` must report zero mismatches. A forensics
#      run that hot-swaps mid-flight (`--spec2`) must stitch the swap-epoch
#      record into the timeline and still audit clean across the swap.
#   5. Docs link check: every relative .md link in README.md, DESIGN.md,
#      EXPERIMENTS.md, and docs/ must resolve to an existing file.
#   6. Sweep determinism smoke: `artemisc sweep` over a small grid must
#      produce byte-identical JSON, CSV and table output for --jobs 1 and
#      --jobs 4, with exit 0;
#      a statically infeasible deployment must be refused with exit 2
#      before any point runs.
#   7. Fleet determinism smoke: `artemisc fleet` over a small device fleet
#      must produce byte-identical JSON for --shards 1 and --shards 4, with
#      exit 0, in batch mode and in scalar mode under outage charges and
#      mixed budgets (the in-loop monitors' power-failure path), and the
#      scalar outage run with the compiled backend (which skips monitors
#      whose event column is dead) must equal the interpreted run (which
#      never skips) outside the backend and monitor-energy lines; the
#      batch-VM differential fuzz runs in stage 1/2/9 via
#      compiled_monitor_test and fleet_test covers shard/tile determinism;
#      the same infeasible deployment must be refused with exit 2.
#   8. SIMD parity gate: a second release build with -DARTEMIS_SIMD=ON
#      (explicit SSE2/NEON batch kernels instead of the portable loops)
#      must pass the full tier-1 suite — including the batch-VM
#      differential fuzz and the hotswap ApplyMigrationFrom
#      permutation-correctness regression — and `artemisc fleet` output
#      must be byte-identical between the SIMD and portable builds.
#   9. clang-tidy (bugprone-*/performance-*/concurrency-*, .clang-tidy at
#      the repo root) over src/ and tools/; skipped with a notice when
#      clang-tidy is not installed.
#  10. ThreadSanitizer build + tier-1 ctest suite, via
#      tools/run_tsan_tests.sh (races in the sweep engine's thread pool,
#      the compiled-spec cache, and the fleet engine's shard workers —
#      fleet_test runs its sharded configurations under TSan here).
#
# Usage: tools/ci.sh [release-build-dir [sanitize-build-dir [tsan-build-dir [simd-build-dir]]]]
#        (defaults: build-ci, build-sanitize, build-tsan, build-simd)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
release_dir="${1:-${repo_root}/build-ci}"
sanitize_dir="${2:-${repo_root}/build-sanitize}"
tsan_dir="${3:-${repo_root}/build-tsan}"
simd_dir="${4:-${repo_root}/build-simd}"

echo "== [1/10] Release build + tests =="
cmake -B "${release_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${release_dir}" -j "$(nproc)"
ctest --test-dir "${release_dir}" --output-on-failure

echo "== [2/10] Sanitized build + tests =="
"${repo_root}/tools/run_sanitized_tests.sh" "${sanitize_dir}"

echo "== [3/10] Static analysis over example specs =="
artemisc="${release_dir}/tools/artemisc"

check_clean() {
  local label="$1"
  shift
  if ! "${artemisc}" check "$@" --analyze --json > /dev/null; then
    echo "CI FAIL: ${label} should analyze clean" >&2
    exit 1
  fi
  echo "ok: ${label} analyzes clean"
}

check_dirty() {
  local label="$1" expect_code="$2"
  shift 2
  local out rc=0
  out="$("${artemisc}" check "$@" --analyze --json 2> /dev/null)" || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "CI FAIL: ${label} should exit 1 (got ${rc})" >&2
    exit 1
  fi
  if ! grep -q "\"code\": \"${expect_code}\"" <<< "${out}"; then
    echo "CI FAIL: ${label} should report ${expect_code}" >&2
    exit 1
  fi
  echo "ok: ${label} reports ${expect_code} and fails"
}

specs="${repo_root}/examples/specs"
check_clean "health.prop" "${specs}/health.prop" --app health
check_clean "health.mayfly" "${specs}/health.mayfly" --app health --mayfly-lang
check_clean "sensornet.prop" "${specs}/sensornet.prop" --app-file "${specs}/sensornet.app"
# The EXPERIMENTS.md deployment grid must be statically feasible.
check_clean "health.prop (charge grid)" "${specs}/health.prop" --app health \
  --charges continuous,1min,3min,6min --budgets 19500
check_dirty "bad/dead_state.prop" ART001 "${specs}/bad/dead_state.prop" --app health
check_dirty "bad/unsat_guard.prop" ART003 "${specs}/bad/unsat_guard.prop" --app health
check_dirty "bad/overlap.prop" ART005 "${specs}/bad/overlap.prop" --app health
# Whole-system fixtures: each needs the deployment axes that expose it.
check_dirty "bad/infeasible_budget.prop" ART009 "${specs}/bad/infeasible_budget.prop" \
  --app health --budgets 9000
check_dirty "bad/infeasible_mitd.prop" ART010 "${specs}/bad/infeasible_mitd.prop" \
  --app health --budgets 18005 --charges 6min
check_dirty "bad/dead_violation.prop" ART011 "${specs}/bad/dead_violation.prop" --app health
check_dirty "bad/inevitable_violation.prop" ART012 \
  "${specs}/bad/inevitable_violation.prop" --app health
check_dirty "bad/war_hazard.prop" ART013 "${specs}/bad/war_hazard.prop" \
  --app health --no-immortal
check_dirty "bad/flight_erosion.prop" ART014 "${specs}/bad/flight_erosion.prop" \
  --app health --flight full --flight-bytes 20
# Hot-swap gate (docs/hotswap.md): the positional spec is the installed
# image, --spec2 the over-the-air replacement (ART015/ART016).
check_clean "health.prop -> health.prop (swap)" "${specs}/health.prop" --app health \
  --spec2 "${specs}/health.prop"
check_dirty "bad/swap_cross_type.prop (swap)" ART015 "${specs}/health.prop" \
  --app health --spec2 "${specs}/bad/swap_cross_type.prop"
check_dirty "bad/swap_unknown_rule.prop (swap)" ART015 "${specs}/health.prop" \
  --app health --spec2 "${specs}/bad/swap_unknown_rule.prop"
check_dirty "health.prop (swap, 1 uJ window)" ART016 "${specs}/health.prop" \
  --app health --spec2 "${specs}/health.prop" --budgets 1

echo "== [4/10] Golden-trace regression =="
# The exported observability stream is deterministic: a fresh run of the
# canonical scenario must reproduce the checked-in golden byte-for-byte.
trace_tmp="$(mktemp /tmp/artemis_trace.XXXXXX.jsonl)"
trap 'rm -f "${trace_tmp}"' EXIT
"${artemisc}" trace --app health --schedule 6min --format jsonl --out "${trace_tmp}" \
  2> /dev/null
if ! "${artemisc}" trace diff "${repo_root}/tests/golden/trace/health_6min.jsonl" \
    "${trace_tmp}"; then
  echo "CI FAIL: health 6min trace diverged from tests/golden/trace/health_6min.jsonl" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 trace_golden_test)" >&2
  exit 1
fi
echo "ok: health 6min trace matches the golden"

# The flight recorder's dump is equally deterministic, and the recovered
# black box must cross-validate against the obs-bus capture of the run.
flight_tmp="$(mktemp /tmp/artemis_flight.XXXXXX.jsonl)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}"' EXIT
"${artemisc}" forensics dump --app health --schedule 6min --out "${flight_tmp}" \
  2> /dev/null
if ! diff -u "${repo_root}/tests/golden/flight/health_6min.jsonl" "${flight_tmp}"; then
  echo "CI FAIL: health 6min flight dump diverged from tests/golden/flight/health_6min.jsonl" >&2
  echo "         (intentional? regenerate with UPDATE_GOLDEN=1 flight_golden_test)" >&2
  exit 1
fi
echo "ok: health 6min flight dump matches the golden"
if ! "${artemisc}" forensics audit --app health --schedule 6min > /dev/null 2>&1; then
  echo "CI FAIL: flight log does not audit clean against the obs-bus trace" >&2
  exit 1
fi
echo "ok: health 6min flight log audits clean"

# Hot-swap stitch (docs/hotswap.md): a run that hot-swaps monitor images
# mid-flight must leave a sealed swap-epoch record that the timeline
# renders (the cross-version history has no gap at the commit point), and
# the same ring must still audit clean against the obs-bus capture of the
# run. Both commands exit nonzero if the swap never applied.
swap_timeline="$("${artemisc}" forensics timeline --app health \
  --spec "${specs}/health.prop" --spec2 "${specs}/health.prop" \
  --swap-at 2min --schedule 6min --flight-bytes 512 2> /dev/null)"
if ! grep -q "image-epoch=2" <<< "${swap_timeline}"; then
  echo "CI FAIL: forensics timeline does not stitch the swap epoch (no image-epoch line)" >&2
  exit 1
fi
echo "ok: forensics timeline stitches the swap-epoch record"
if ! "${artemisc}" forensics audit --app health --spec "${specs}/health.prop" \
    --spec2 "${specs}/health.prop" --swap-at 2min --schedule 6min \
    --flight-bytes 512 > /dev/null 2>&1; then
  echo "CI FAIL: flight log does not audit clean across a swap epoch" >&2
  exit 1
fi
echo "ok: flight log audits clean across the swap epoch"

echo "== [5/10] Docs link check =="
# Every relative .md link in the top-level docs and docs/ must resolve.
# Matches [text](path.md) and [text](path.md#anchor); external http(s)
# links are skipped.
link_errors=0
for doc in "${repo_root}/README.md" "${repo_root}/DESIGN.md" "${repo_root}/EXPERIMENTS.md" \
    "${repo_root}"/docs/*.md; do
  [[ -f "${doc}" ]] || continue
  while IFS= read -r link; do
    target="${link%%#*}"
    case "${target}" in
      http://*|https://*) continue ;;
    esac
    if [[ ! -e "$(dirname "${doc}")/${target}" ]]; then
      echo "CI FAIL: broken link in ${doc#"${repo_root}"/}: ${link}" >&2
      link_errors=$((link_errors + 1))
    fi
  done < <(grep -o '\[[^]]*\](\([^)]*\.md[^)]*\))' "${doc}" 2>/dev/null \
           | sed 's/.*(\(.*\))/\1/')
done
if [[ "${link_errors}" -ne 0 ]]; then
  echo "CI FAIL: ${link_errors} broken doc link(s)" >&2
  exit 1
fi
echo "ok: all relative .md links resolve"

echo "== [6/10] Sweep determinism smoke =="
# The parallel sweep engine's exports must not depend on the worker count.
sweep_j1="$(mktemp /tmp/artemis_sweep_j1.XXXXXX)"
sweep_j4="$(mktemp /tmp/artemis_sweep_j4.XXXXXX)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}"' EXIT
for format in json csv table; do
  "${artemisc}" sweep "${repo_root}/examples/sweeps/smoke.json" \
    --jobs 1 --format "${format}" --out "${sweep_j1}"
  "${artemisc}" sweep "${repo_root}/examples/sweeps/smoke.json" \
    --jobs 4 --format "${format}" --out "${sweep_j4}"
  if ! diff -q "${sweep_j1}" "${sweep_j4}" > /dev/null; then
    echo "CI FAIL: sweep ${format} differs between --jobs 1 and --jobs 4" >&2
    diff "${sweep_j1}" "${sweep_j4}" >&2 || true
    exit 1
  fi
  echo "ok: sweep ${format} is byte-identical for --jobs 1 and --jobs 4"
done

# A statically infeasible deployment must be refused before any point runs,
# identically for any job count: exit 2 (usage-level refusal), not a grid
# of failing rows.
rc=0
"${artemisc}" sweep --app health --spec "${specs}/bad/infeasible_budget.prop" \
  --budgets 9000 --format json > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "CI FAIL: infeasible sweep deployment should be refused with exit 2 (got ${rc})" >&2
  exit 1
fi
echo "ok: infeasible sweep deployment refused with exit 2"

echo "== [7/10] Fleet determinism smoke =="
# The sharded fleet engine's export must not depend on the shard count.
fleet_s1="$(mktemp /tmp/artemis_fleet_s1.XXXXXX.json)"
fleet_s4="$(mktemp /tmp/artemis_fleet_s4.XXXXXX.json)"
outage_s1="$(mktemp /tmp/artemis_outage_s1.XXXXXX.json)"
outage_s4="$(mktemp /tmp/artemis_outage_s4.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}" \
  "${fleet_s1}" "${fleet_s4}" "${outage_s1}" "${outage_s4}"' EXIT
"${artemisc}" fleet --app health --devices 200 --iterations 1 \
  --charges continuous,6min --shards 1 --format json --out "${fleet_s1}"
"${artemisc}" fleet --app health --devices 200 --iterations 1 \
  --charges continuous,6min --shards 4 --format json --out "${fleet_s4}"
if ! diff -q "${fleet_s1}" "${fleet_s4}" > /dev/null; then
  echo "CI FAIL: fleet JSON differs between --shards 1 and --shards 4" >&2
  diff "${fleet_s1}" "${fleet_s4}" >&2 || true
  exit 1
fi
echo "ok: fleet JSON is byte-identical for --shards 1 and --shards 4"

# Scalar mode under outages: every device reboots many times inside its
# in-loop monitor and task charges; the export must still not depend on
# the shard count.
"${artemisc}" fleet --app health --monitor scalar --devices 48 --minutes 120 \
  --charges 1min,6min --budgets 19500,12000,6000 --stats --shards 1 \
  --format json --out "${outage_s1}"
"${artemisc}" fleet --app health --monitor scalar --devices 48 --minutes 120 \
  --charges 1min,6min --budgets 19500,12000,6000 --stats --shards 4 \
  --format json --out "${outage_s4}"
if ! diff -q "${outage_s1}" "${outage_s4}" > /dev/null; then
  echo "CI FAIL: scalar outage fleet JSON differs between --shards 1 and --shards 4" >&2
  diff "${outage_s1}" "${outage_s4}" >&2 || true
  exit 1
fi
echo "ok: scalar outage fleet JSON is byte-identical for --shards 1 and --shards 4"

# Whole-output equivalence of the scalar dead-column skip: the compiled
# backend skips Step for monitors whose (kind, task) column is dead, the
# interpreter never skips. Only the backend name and the monitor energy
# (a cost-model difference) may differ.
outage_interp="$(mktemp /tmp/artemis_outage_interp.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}" \
  "${fleet_s1}" "${fleet_s4}" "${outage_s1}" "${outage_s4}" "${outage_interp}"' EXIT
"${artemisc}" fleet --app health --monitor scalar --backend interpreted --devices 48 \
  --minutes 120 --charges 1min,6min --budgets 19500,12000,6000 --stats --shards 4 \
  --format json --out "${outage_interp}"
mask_cost_lines() {
  grep -v -e '"backend":' -e '"monitor_energy_nj":' -e '"monitor_share":' "$1"
}
if ! diff <(mask_cost_lines "${outage_s4}") <(mask_cost_lines "${outage_interp}") > /dev/null; then
  echo "CI FAIL: scalar outage fleet JSON differs between compiled and interpreted backends" >&2
  diff <(mask_cost_lines "${outage_s4}") <(mask_cost_lines "${outage_interp}") >&2 || true
  exit 1
fi
echo "ok: scalar outage fleet JSON matches between compiled (skipping) and interpreted backends"

# Fleet parity: the same infeasible deployment is refused up front.
rc=0
"${artemisc}" fleet --app health --spec "${specs}/bad/infeasible_budget.prop" \
  --devices 4 --iterations 1 --budgets 9000 --format json > /dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 2 ]]; then
  echo "CI FAIL: infeasible fleet deployment should be refused with exit 2 (got ${rc})" >&2
  exit 1
fi
echo "ok: infeasible fleet deployment refused with exit 2"

echo "== [8/10] SIMD parity gate =="
# Same sources, explicit SSE2/NEON batch kernels: the full tier-1 suite
# must pass (the batch-VM differential fuzz in compiled_monitor_test runs
# per-class and lane-list parity under SIMD here, and hotswap_test re-runs
# the ApplyMigrationFrom permutation-correctness regression against the
# cohort-partitioned stepper), and fleet output must be byte-identical to
# the portable build's.
cmake -B "${simd_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release -DARTEMIS_SIMD=ON
cmake --build "${simd_dir}" -j "$(nproc)"
ctest --test-dir "${simd_dir}" --output-on-failure
fleet_simd="$(mktemp /tmp/artemis_fleet_simd.XXXXXX.json)"
fleet_portable="$(mktemp /tmp/artemis_fleet_portable.XXXXXX.json)"
trap 'rm -f "${trace_tmp}" "${flight_tmp}" "${sweep_j1}" "${sweep_j4}" \
  "${fleet_s1}" "${fleet_s4}" "${outage_s1}" "${outage_s4}" "${fleet_simd}" \
  "${fleet_portable}"' EXIT
"${artemisc}" fleet --app health --devices 500 --iterations 1 \
  --charges continuous,6min --shards 2 --stats --format json --out "${fleet_portable}"
"${simd_dir}/tools/artemisc" fleet --app health --devices 500 --iterations 1 \
  --charges continuous,6min --shards 2 --stats --format json --out "${fleet_simd}"
if ! diff -q "${fleet_portable}" "${fleet_simd}" > /dev/null; then
  echo "CI FAIL: fleet JSON differs between ARTEMIS_SIMD=ON and portable builds" >&2
  diff "${fleet_portable}" "${fleet_simd}" >&2 || true
  exit 1
fi
echo "ok: fleet JSON is byte-identical between SIMD and portable builds"

echo "== [9/10] clang-tidy static analysis =="
if command -v clang-tidy > /dev/null 2>&1; then
  # Reuse the release build's compile commands; .clang-tidy at the repo
  # root scopes the checks (bugprone-*, performance-*, concurrency-*).
  cmake -B "${release_dir}" -S "${repo_root}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    > /dev/null
  tidy_fail=0
  while IFS= read -r source; do
    if ! clang-tidy -p "${release_dir}" --quiet "${repo_root}/${source}" 2> /dev/null; then
      echo "CI FAIL: clang-tidy findings in ${source}" >&2
      tidy_fail=1
    fi
  done < <(git -C "${repo_root}" ls-files 'src/*.cc' 'tools/*.cc')
  if [[ "${tidy_fail}" -ne 0 ]]; then
    exit 1
  fi
  echo "ok: clang-tidy is clean over src/ and tools/"
else
  echo "skip: clang-tidy not installed (stage runs where the toolchain provides it)"
fi

echo "== [10/10] ThreadSanitizer build + tests =="
"${repo_root}/tools/run_tsan_tests.sh" "${tsan_dir}"

echo "CI: all stages passed"
