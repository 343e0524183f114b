#!/usr/bin/env bash
# Regenerates every BENCH_*.json at default scale into a scratch
# directory (never the checkout) and fails unless each equals its
# checked-in copy outside meta.git_sha / meta.timestamp.
#
#   scripts/ledger-drift.sh [OUT_DIR]    # after `cargo build --release`
#
# To refresh the ledger after a change that is meant to move it, copy
# OUT_DIR/BENCH_*.json over the checked-in files and commit them.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"
sha=${GITHUB_SHA:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
for mode in regimes bursts scale batch-scaling serving; do
  DPR_RESULTS_DIR=$out ./target/release/continuous "--$mode" \
    --git-sha "$sha" --stamp "$(date -u +%FT%TZ)" > "$out/$mode.stdout" 2> "$out/$mode.stderr" ||
    { cat "$out/$mode.stderr"; echo "continuous --$mode failed"; exit 1; }
done
unstamped() { grep -v -e '"git_sha":' -e '"timestamp":' "$1"; }
status=0
for name in $( (ls BENCH_*.json; cd "$out" && ls BENCH_*.json) | sort -u); do
  if [ ! -f "$name" ]; then
    echo "DRIFT $name: regenerated but not checked in"; status=1
  elif [ ! -f "$out/$name" ]; then
    echo "DRIFT $name: checked in but no mode regenerates it"; status=1
  elif ! diff <(unstamped "$name") <(unstamped "$out/$name"); then
    echo "DRIFT $name: differs from what this tree regenerates (above: < checked in, > regenerated)"; status=1
  else
    echo "ok    $name"
  fi
done
exit $status
