#!/usr/bin/env bash
# coverage_gate.sh — the repo's coverage regression gate.
#
# Runs `go test -coverprofile` across every package, then fails if
#   1. total statement coverage drops below the checked-in floor
#      (results/COVERAGE_baseline.txt), or
#   2. a per-package floor is violated (cmd/figures and cmd/bench carry
#      explicit 75% floors from the harness-coverage work; internal/serve
#      carries an 80% floor from the placement-service work;
#      internal/model carries an 85% floor from the coverage-economics
#      work, backed by internal/stats at 90%; internal/wire carries a 90%
#      floor from the wire-codec work; internal/invariant carries an 80%
#      floor from the differential-harness work).
#
# The profile is left at ${COVER_PROFILE:-/tmp/coverage.out} so CI can
# upload it as an artifact. Raise the baseline when coverage improves;
# never lower it to make a red build green.
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${COVER_PROFILE:-/tmp/coverage.out}"
baseline_file="results/COVERAGE_baseline.txt"

echo "==> go test -coverprofile across ./..."
go test -coverprofile="$profile" ./... > /dev/null

total=$(go tool cover -func="$profile" | awk '/^total:/ {gsub(/%/, "", $NF); print $NF}')
floor=$(cat "$baseline_file")
echo "total statement coverage: ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "FAIL: total coverage ${total}% fell below the checked-in floor ${floor}%"
    echo "      (baseline: $baseline_file)"
    exit 1
}

# Per-package floors. go test prints one "coverage: X%" line per tested
# package; -cover output keyed by import path keeps the mapping exact.
check_pkg() {
    local pkg="$1" floor="$2"
    local pct
    pct=$(go test -cover "$pkg" | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {gsub(/%/, "", $i); print $i; exit}}')
    echo "${pkg#roadside/} coverage: ${pct}% (floor ${floor}%)"
    awk -v t="$pct" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
        echo "FAIL: $pkg coverage ${pct}% below its ${floor}% floor"
        exit 1
    }
}
check_pkg roadside/cmd/figures 75
check_pkg roadside/cmd/bench 75
check_pkg roadside/internal/serve 80
check_pkg roadside/internal/model 85
check_pkg roadside/internal/stats 90
check_pkg roadside/internal/wire 90
check_pkg roadside/internal/invariant 80

echo "coverage gate: passed (profile at $profile)"
