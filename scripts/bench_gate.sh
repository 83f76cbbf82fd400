#!/usr/bin/env bash
# Benchmark gates for the engine hot path, measured as same-host A/Bs.
#
# Engine mode (no flag) builds the base revision's `engine_hotpath` and
# `engine_scaling` benches in a temporary git worktree and runs them
# interleaved with the working tree's build on this host, at PBW_THREADS=1:
# ROUNDS rounds, each running both sides back to back, alternating A B /
# B A. Per round a leg scores min(HEAD)/min(base), the ratio of the two
# sides' minimum batch times. The gate fails when a leg's median score
# exceeds 1 + THRESHOLD_PCT/100, or when a leg at base is missing at HEAD;
# a leg only at HEAD is reported as new and not gated.
#
# Why minimums: preemption inflates single timed batches, so a run's median
# swings 30-100%, while a real regression (say, an allocation per message)
# slows every batch, minimum included. Why an A/B: absolute minimums differ
# by up to 2x between hosts. Why the median of paired rounds: on a shared
# host a whole process can run 1.6x slow and fast processes come in bursts,
# so the minimum over all of one side's rounds hinges on whether that side
# caught a burst. DESIGN.md §8 has the measurements.
#
# The base revision is derived, not configured: the merge-base with
# origin/main when HEAD is not on it (a pull request), else HEAD~1 (a push
# to main). The HEAD side is the working tree. The worktree and its target
# dir live under target/bench-gate and are removed on exit.
#
# --self-test runs the same A/B with base := HEAD (one build against
# itself), which must pass, then rescales HEAD by 1.5, which must fail.
#
# --parallel is the core-aware speedup gate, a comparison of pool widths
# within one run of the parallel_speedup bench (crates/bench/benches/
# parallel.rs), so it needs no base:
#   nproc >= 4  median threads_1/threads_4 must reach SPEEDUP_FLOOR on
#               every scenario: real cores must be recruited;
#   nproc < 4   threads_8 must stay within OVERHEAD_CEIL of threads_1 (a
#               wide pool may not tax a narrow host), and the cross-width
#               determinism suite must pass at widths 1, 4 and 8.
# A load spike can spoil one run, so it gets PARALLEL_TRIES runs.
#
# Usage: scripts/bench_gate.sh [--self-test | --parallel]
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT=25
ROUNDS=20
SPEEDUP_FLOOR=2.0
OVERHEAD_CEIL=1.25
PARALLEL_TRIES=3
BENCHES=(engine_hotpath engine_scaling)

mode="${1:-}"
case "$#:$mode" in
  0: | 1:--self-test | 1:--parallel) ;;
  *)
    echo "usage: $0 [--self-test | --parallel]" >&2
    exit 2
    ;;
esac

# parse_times <col>: turn criterion-shim lines such as
#   engine_hotpath/bsp_ring/p1024  time: [27.9 µs 28.9 µs 32.7 µs]
# into "<leg> <ns>" pairs, taking the minimum (col 1) or the median (col 2).
parse_times() {
  awk -v col="$1" '
    BEGIN { f["ns"] = 1; f["µs"] = 1e3; f["ms"] = 1e6; f["s"] = 1e9 }
    / time: \[/ {
      v = col == 1 ? substr($3, 2) : $5
      u = col == 1 ? $4 : $6
      if (u in f) printf "%s %.1f\n", $1, v * f[u]
    }'
}

# ---------------------------------------------------------------------------
# --parallel: pool widths compared within one run
# ---------------------------------------------------------------------------

if [ "$mode" = --parallel ]; then
  cores="$(nproc)"
  passed=0
  for try in $(seq "$PARALLEL_TRIES"); do
    echo "== bench_gate: parallel_speedup at pool widths 1/4/8 (nproc=$cores, run $try/$PARALLEL_TRIES) =="
    out="$(cargo bench -q -p pbw-bench --bench parallel 2>&1)" || {
      printf '%s\n' "$out" >&2
      exit 1
    }
    printf '%s\n' "$out"
    if parse_times 2 <<< "$out" | awk -v cores="$cores" -v floor="$SPEEDUP_FLOOR" -v ceil="$OVERHEAD_CEIL" '
      split($1, part, "/") == 3 && part[1] == "parallel_speedup" && part[3] ~ /^threads_[0-9]+$/ {
        med[part[2] "," substr(part[3], 9)] = $2
        if (!seen[part[2]]++) order[++n] = part[2]
      }
      END {
        bad = n == 0
        if (bad) print "bench_gate: FAIL no parallel_speedup scenarios parsed"
        for (i = 1; i <= n; i++) {
          s = order[i]
          if (!((s ",1") in med) || !((s ",4") in med) || !((s ",8") in med)) {
            printf "bench_gate: FAIL %s: missing a pool width (need 1, 4, 8)\n", s
            bad = 1
          } else if (cores >= 4) {
            r = med[s ",1"] / med[s ",4"]
            printf "bench_gate: %s %s: %.2fx speedup at 4 threads (floor %.1fx, nproc=%d)\n",
              (r < floor) ? "FAIL" : "ok  ", s, r, floor, cores
            bad = bad || r < floor
          } else {
            r = med[s ",8"] / med[s ",1"]
            printf "bench_gate: %s %s: threads_8 is %.2fx threads_1 (ceiling %.2fx, nproc=%d)\n",
              (r > ceil) ? "FAIL" : "ok  ", s, r, ceil, cores
            bad = bad || r > ceil
          }
        }
        exit bad
      }'; then
      passed=1
      break
    fi
  done
  [ "$passed" -eq 1 ] || exit 1
  if [ "$cores" -lt 4 ]; then
    # A narrow host cannot show a speedup, so byte-identical results at
    # every pool width are the rest of what it can prove.
    echo "== bench_gate: nproc=$cores < 4, running the cross-width determinism suite =="
    for w in 1 4 8; do
      PBW_THREADS="$w" cargo test --release -q --test parallel_conformance
    done
    echo "bench_gate: parallel gate (nproc=$cores): overhead ceiling and determinism suite passed"
  else
    echo "bench_gate: parallel gate (nproc=$cores): every scenario >= ${SPEEDUP_FLOOR}x at 4 threads"
  fi
  exit 0
fi

# ---------------------------------------------------------------------------
# Engine mode and --self-test: base vs HEAD, interleaved on this host
# ---------------------------------------------------------------------------

work="$PWD/target/bench-gate"
cleanup() {
  rm -rf "$work"
  git worktree prune
}
cleanup
trap cleanup EXIT
mkdir -p "$work"

# bench_bins <source dir> <target dir>: build the gated benches and print
# their executables, one per line, in BENCHES order.
bench_bins() {
  local args=() json bench exe
  for bench in "${BENCHES[@]}"; do args+=(--bench "$bench"); done
  json="$(cd "$1" && CARGO_TARGET_DIR="$2" cargo bench -q --no-run --message-format=json-render-diagnostics -p pbw-bench "${args[@]}")"
  for bench in "${BENCHES[@]}"; do
    exe="$(grep -o "\"executable\":\"[^\"]*/deps/$bench-[0-9a-f]*\"" <<< "$json" | cut -d'"' -f4)"
    [ -x "$exe" ] || {
      echo "bench_gate: no $bench executable built in $1" >&2
      exit 1
    }
    echo "$exe"
  done
}

echo "== bench_gate: building HEAD (working tree) =="
mapfile -t head_bins < <(bench_bins "$PWD" "$PWD/target")
[ "${#head_bins[@]}" -eq "${#BENCHES[@]}" ] || exit 1
if [ "$mode" = --self-test ]; then
  echo "== bench_gate --self-test: base := HEAD =="
  base_bins=("${head_bins[@]}")
else
  base_rev="$(git rev-parse HEAD~1)"
  if ! git merge-base --is-ancestor HEAD origin/main 2>/dev/null; then
    base_rev="$(git merge-base HEAD origin/main 2>/dev/null || echo "$base_rev")"
  fi
  echo "== bench_gate: building base $(git log -1 --format='%h %s' "$base_rev") =="
  git worktree add --quiet --detach "$work/src" "$base_rev"
  mapfile -t base_bins < <(bench_bins "$work/src" "$work/target")
  [ "${#base_bins[@]}" -eq "${#BENCHES[@]}" ] || exit 1
fi

# run_side <base|head> <round> <bin>...: one round of every gated bench,
# appending "<round> <leg> <min ns>" lines to $work/<side>.times.
run_side() {
  local side="$1" round="$2" bin out
  shift 2
  for bin in "$@"; do
    out="$(PBW_THREADS=1 "$bin")" || {
      echo "bench_gate: $side bench $bin failed" >&2
      exit 1
    }
    parse_times 1 <<< "$out" | sed "s/^/$round /" >> "$work/$side.times"
  done
}

for round in $(seq "$ROUNDS"); do
  echo "bench_gate: round $round/$ROUNDS"
  if [ $((round % 2)) -eq 1 ]; then
    run_side base "$round" "${base_bins[@]}"
    run_side head "$round" "${head_bins[@]}"
  else
    run_side head "$round" "${head_bins[@]}"
    run_side base "$round" "${base_bins[@]}"
  fi
done

# gate <scale>: each leg's median over rounds of HEAD's minimum (times
# <scale>) over base's minimum in the same round, against the threshold.
gate() {
  awk -v scale="$1" -v thr="$THRESHOLD_PCT" '
    BEGIN { limit = 1 + thr / 100 }
    FILENAME == ARGV[1] { base[$2, $1] = $3; if (!seen[$2]++) nbase++; next }
    {
      head[$2, $1] = $3 * scale
      if (!($2 in inhead)) { inhead[$2] = 1; order[++n] = $2 }
    }
    END {
      bad = n == 0 || nbase == 0
      if (bad) print "bench_gate: FAIL no timings parsed on one side"
      for (i = 1; i <= n; i++) {
        leg = order[i]
        if (!(leg in seen)) {
          printf "bench_gate: new  %s: not at base, not gated\n", leg
          continue
        }
        k = 0
        for (r = 1; ((leg, r) in head) && ((leg, r) in base); r++) {
          x = head[leg, r] / base[leg, r]
          for (j = ++k; j > 1 && ratio[j - 1] > x; j--) ratio[j] = ratio[j - 1]
          ratio[j] = x
        }
        med = k % 2 ? ratio[(k + 1) / 2] : (ratio[k / 2] + ratio[k / 2 + 1]) / 2
        printf "bench_gate: %s %s: x%.2f (rounds x%.2f..x%.2f, limit x%.2f)\n",
          (med > limit) ? "FAIL" : "ok  ", leg, med, ratio[1], ratio[k], limit
        bad = bad || med > limit
      }
      for (leg in seen) if (!(leg in inhead)) {
        printf "bench_gate: FAIL %s: at base but missing at HEAD\n", leg
        bad = 1
      }
      exit bad
    }' "$work/base.times" "$work/head.times"
}

if [ "$mode" = --self-test ]; then
  gate 1.0 || {
    echo "bench_gate self-test: HEAD failed against itself" >&2
    exit 1
  }
  echo "== bench_gate --self-test: HEAD rescaled x1.5 must fail =="
  if gate 1.5; then
    echo "bench_gate self-test: a synthetic +50% slowdown was NOT caught" >&2
    exit 1
  fi
  echo "bench_gate self-test: HEAD passes against itself and a synthetic +50% slowdown fails"
  exit 0
fi

gate 1.0
echo "bench_gate: every leg within +${THRESHOLD_PCT}% of the base build on this host"
