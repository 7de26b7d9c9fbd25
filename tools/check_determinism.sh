#!/usr/bin/env bash
# Determinism source lint: the simulator's contract is bit-identical event
# ordering for a given seed, across shard and thread counts. That breaks
# the moment simulation code consults a wall clock, an unseeded RNG, or
# iterates an unordered container into anything order-sensitive. This
# script greps the order-critical sources for those hazard patterns and
# fails with file:line diagnostics when one appears.
#
# Allowlist: a hazard line carrying a justification comment of the form
#     ... // determinism: <why this use cannot affect event ordering>
# is accepted. The justification is mandatory prose, not a bare tag — a
# reviewer must be able to read why the use is safe.
#
# Usage: tools/check_determinism.sh [repo-root]   (defaults to cwd)

set -u

root="${1:-.}"
cd "$root" || exit 2

# Order-critical trees: the event kernel, shard engine and topology
# generator (src/sim), the bus arbitration model (src/canbus), the
# protocol engines (src/core), the offline schedulers and the analytic
# probabilistic engine (src/sched — rtec_verify --prob results must be
# reproducible bit-for-bit), the periodic-task clocks (src/time) and the
# static verifier (src/analysis — its reports are golden-tested), and the
# streaming trace consumers (src/trace — the anomaly detectors run inside
# the simulation and feed the byte-identity differential tests), the
# shared utilities (src/util — Rng makes every seeded fault and workload
# draw) and the comparison baselines (src/baselines — they drive E3, E4,
# E5 and E11 inside the simulation).
# Bench/tools/tests may use host facilities freely; they never run inside
# a simulation.
dirs="src/sim src/canbus src/core src/sched src/time src/analysis src/trace src/util src/baselines"
for d in $dirs; do
  if [ ! -d "$d" ]; then
    echo "check_determinism: missing directory $d (run from the repo root)" >&2
    exit 2
  fi
done

allow='// determinism:'
status=0

scan() {
  local pattern="$1" why="$2"
  local hits
  hits=$(grep -rnE --include='*.cpp' --include='*.hpp' "$pattern" $dirs |
    grep -vF "$allow")
  if [ -n "$hits" ]; then
    status=1
    echo "error: $why" >&2
    echo "$hits" | sed 's/^/  /' >&2
    echo "  (allowlist with a trailing '$allow <justification>' comment)" >&2
  fi
}

scan '\b(std::)?rand\(|\bsrand\(|std::random_device|std::mt19937' \
  'unseeded/libc randomness in simulation code — use util/random.hpp Rng with an explicit seed'

scan 'std::time\b|\btime\(NULL\)|\btime\(nullptr\)|gettimeofday|clock_gettime|localtime|gmtime' \
  'wall-clock time in simulation code — all time must come from the simulated clock'

scan 'std::chrono::(system_clock|steady_clock|high_resolution_clock)' \
  'host chrono clock in simulation code — all time must come from the simulated clock'

scan 'std::unordered_(map|set|multimap|multiset)' \
  'unordered container in order-critical code — iteration order is implementation-defined and can leak into event ordering; use std::map/std::set or a vector'

if [ "$status" -eq 0 ]; then
  echo "check_determinism: OK ($dirs)"
fi
exit "$status"
