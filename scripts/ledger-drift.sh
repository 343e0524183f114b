#!/usr/bin/env bash
# Regenerates every checked-in record — the paper's tables under
# results/ and the BENCH_*.json ledger at the root — into a scratch
# directory (never the checkout) and fails unless each equals its
# checked-in copy outside meta.git_sha / meta.timestamp, or a checked-in
# record is missing from the list below. The list is the one place that
# says which invocation made each record.
#
#   scripts/ledger-drift.sh [OUT_DIR]    # after `cargo build --release`
#
# To refresh a record after a change that is meant to move it, copy
# OUT_DIR/<name>.json over the checked-in file and commit it.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"
sha=${GITHUB_SHA:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
stamp=$(date -u +%FT%TZ)
records=(
  # record                  invocation
  "results/table1.json      table1 --json"
  "results/table3.json      table3 --json"
  "results/table4.json      table4 --samples 500 --json"
  "results/table6.json      table6 --json"
  "results/continuous.json  continuous --nodes 10000 --inserts 100 --json"
  "BENCH_regimes.json       continuous --regimes"
  "BENCH_bursts.json        continuous --bursts"
  "BENCH_scale.json         continuous --scale"
  "BENCH_node_batching.json continuous --batch-scaling"
  "BENCH_serving.json       continuous --serving"
)
unstamped() { grep -v -e '"git_sha":' -e '"timestamp":' "$1"; }
status=0
listed=" "
for entry in "${records[@]}"; do
  read -r record invocation <<< "$entry"
  listed+="$record "
  name=$(basename "$record" .json)
  # shellcheck disable=SC2086 # the invocation is a word list
  DPR_RESULTS_DIR=$out ./target/release/$invocation --git-sha "$sha" --stamp "$stamp" \
    > "$out/$name.stdout" 2> "$out/$name.stderr" ||
    { cat "$out/$name.stderr"; echo "$invocation failed"; exit 1; }
  if [ ! -f "$record" ]; then
    echo "DRIFT $record: regenerated but not checked in"; status=1
  elif ! diff <(unstamped "$record") <(unstamped "$out/$name.json"); then
    echo "DRIFT $record: differs from what this tree regenerates (above: < checked in, > regenerated)"; status=1
  else
    echo "ok    $record"
  fi
done
for record in $(git ls-files 'results/*.json' 'BENCH_*.json'); do
  case "$listed" in
    *" $record "*) ;;
    *) echo "DRIFT $record: checked in but nothing here regenerates it"; status=1 ;;
  esac
done
exit $status
