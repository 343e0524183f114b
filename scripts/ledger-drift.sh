#!/usr/bin/env bash
# Regenerates every checked-in record — the paper's tables under
# results/ and the BENCH_*.json ledger at the root — into a scratch
# directory (never the checkout) and fails unless each equals its
# checked-in copy outside meta.git_sha / meta.timestamp, or a checked-in
# record is missing from the list. The list is crates/bench/records.txt,
# the one place that says which invocation makes each record.
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
mapfile -t records < <(grep -v -e '^#' -e '^$' crates/bench/records.txt)
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
