#!/usr/bin/env bash
# qtbench entry point: builds qtbench and the daemons it drives (Release,
# into build-qtbench/ at the repository root), then runs workloads.
#
#   bench/qtbench/run.sh [--list] [--workload=NAME]... [--seed=N]
#                        [--seconds=S] [--traced | --trace=0|1]
#                        [--repeat=N] [--out=FILE]
#
# Every flag also takes its value as the next argument (--seed 7). With
# no --workload, every workload runs. --repeat=N runs each workload N
# times, with seeds --seed, --seed+1, ..., and then prints each metric's
# median and quartiles. --out=FILE collects every run's JSON result line.
# Exit status: 0 when every run passed, otherwise the first failure's:
# 1 for a correctness divergence, 2 when a run (or the build) failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-qtbench"

workloads=()
seed=1 seconds=20 traced=0 repeat=1 out="" list=0
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) key="${arg%%=*}" value="${arg#*=}" ;;
    --list | --traced) key="$arg" value="" ;;
    --*)
      key="$arg" value=""
      if [[ $# -gt 0 ]]; then
        value="$1"
        shift
      fi
      ;;
    *)
      echo "run.sh: unexpected argument '$arg'" >&2
      exit 2
      ;;
  esac
  case "$key" in
    --list) list=1 ;;
    --workload) workloads+=("$value") ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --traced) traced=1 ;;
    --trace) traced="$value" ;;
    --repeat) repeat="$value" ;;
    --out) out="$value" ;;
    *)
      echo "run.sh: unknown flag '$key'" >&2
      exit 2
      ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
    >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    rm -f "$build/CMakeCache.txt"
    echo "run.sh: configuring qtbench failed (full log: $log)" >&2
    exit 2
  fi
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if ((jobs > 4)); then jobs=4; fi
if ! cmake --build "$build" -j "$jobs" >>"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: building qtbench failed (full log: $log)" >&2
  exit 2
fi

bin="$build/bin/qtbench"
if ((list)); then exec "$bin" --list; fi
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <("$bin" --list | cut -f1)
fi
if [[ -n "$out" ]]; then : >"$out"; fi

status=0
for workload in "${workloads[@]}"; do
  results=()
  for ((r = 0; r < repeat; r++)); do
    run_seed=$((seed + r))
    result="$build/run/$workload.seed$run_seed.trace$traced.result.json"
    args=(--workload="$workload" --seed="$run_seed" --seconds="$seconds"
      --trace="$traced" --out="$result")
    rm -f "$result"
    rc=0
    "$bin" "${args[@]}" || rc=$?
    if ((rc == 0)); then results+=("$result"); fi
    if ((rc != 0 && status == 0)); then status=$rc; fi
    if [[ -n "$out" && -f "$result" ]]; then cat "$result" >>"$out"; fi
  done
  if ((repeat > 1 && ${#results[@]} > 0)); then
    echo "# $workload: ${#results[@]} of $repeat runs passed, seeds $seed..$((seed + repeat - 1))"
    "$bin" --summarize "${results[@]}"
  fi
done
exit "$status"
