#!/usr/bin/env bash
# The mutant kill matrix.
#
#   scripts/mutants.sh                 # every patch under mutants/
#   scripts/mutants.sh no-flush ack-2f # just these
#
# Each `mutants/<name>.patch` removes or weakens one mechanism of the
# protocol. Its first line names the mechanism and the paper artifact; its
# `expect:` line is `must-die` (some spec check must notice), `open` (the
# verdict is reported, not gated) or `survivor` (an argued equivalent
# mutant). The diff follows the free-text header.
#
# The script copies the working tree to target/mutants/tree, never touching
# the checkout, and builds there with one shared CARGO_TARGET_DIR
# (target/mutants/build), so each patch recompiles only what it touches.
# The clean tree runs first and must pass. Then, per mutant: apply, build,
# run the test suites of every package (one suite per package, each cut
# off after SUITE_TIMEOUT seconds; a test still running then counts as
# killed), classify each failing test, revert.
#
# Classes, by test name:
#   pin   a count pin: the test name contains `pinned` or starts `golden`;
#   spec  a spec oracle: a test that runs whole executions and judges them
#         by the specification (regularity checker, stable windows, a
#         lemma's bound, termination) — every integration test binary, the
#         experiment modules of sbft-bench, sbft-explorer, sbft-baseline,
#         and the cluster / soak tests of sbft-core and sbft-kv;
#   unit  everything else: one automaton or data structure driven by hand.
#
# Output: one markdown row per mutant (kills per class with the first
# failing test of each, seconds to the first kill, verdict), then the
# ablation rows — E8's three-writer cell on the clean tree and under
# `max-weight` / `no-union`, the FLUSH workload on the clean tree and
# under `no-flush`. The matrix is also written to target/mutants/matrix.md,
# each mutant's test output to target/mutants/<name>.log and its kills to
# target/mutants/<name>.kills.
#
# Exit status is non-zero when the clean tree fails a test, when a patch
# no longer applies or builds, or when a `must-die` mutant survives every
# spec-class test.

set -uo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$ROOT/target/mutants
TREE=$WORK/tree
SUITE_TIMEOUT=120
export CARGO_TARGET_DIR=$WORK/build
# `git apply` in the copy must not find the checkout's repository above it.
export GIT_CEILING_DIRECTORIES=$WORK

# Suites in the order they run: the protocol crates first, the slow
# experiment suite last.
SUITES=(crates/core crates/wtsg crates/net crates/kv . crates/explorer crates/baseline
  crates/labels crates/storage crates/datalink crates/bench)

die() {
  echo "mutants.sh: $*" >&2
  exit 2
}

if [ $# -gt 0 ]; then
  NAMES=("$@")
else
  NAMES=()
  for p in "$ROOT"/mutants/*.patch; do NAMES+=("$(basename "$p" .patch)"); done
fi
for name in "${NAMES[@]}"; do
  [ -f "$ROOT/mutants/$name.patch" ] || die "no such mutant: $name"
done

rm -rf "$TREE"
mkdir -p "$TREE"
# -m: every copied file is newer than anything in the shared build
# directory, so the clean build never reuses a patched artifact.
git -C "$ROOT" ls-files -z -co --exclude-standard |
  tar -C "$ROOT" --null -T - -cf - | tar -xmf - -C "$TREE" || die "cannot copy the working tree"
cd "$TREE" || die "cannot enter $TREE"

class_of() {
  local name=$1 leaf=${1##*::}
  if [[ $leaf == *pinned* || $leaf == golden* ]]; then
    echo pin
  elif [[ $name =~ ^(tests/|crates/[a-z]+/tests/|sbft_bench::(e[0-9]+_[a-z0-9_]+|ablations)::|sbft_explorer::|sbft_baseline::|sbft_(core|kv)::(cluster|soak)::) ]]; then
    echo spec
  else
    echo unit
  fi
}

# Run every suite; print "<seconds> <class> <test>" for each failing test.
run_suites() {
  local log=$1 start=$SECONDS dir prefix line status
  : >"$log"
  for dir in "${SUITES[@]}"; do
    prefix=""
    timeout "$SUITE_TIMEOUT" cargo test --offline --manifest-path "$dir/Cargo.toml" \
      --no-fail-fast --lib --bins --tests 2>&1 |
      while IFS= read -r line; do
        echo "$line" >>"$log"
        case $line in
          *"Running unittests "*)
            prefix=${line##*/deps/}
            prefix=${prefix%-*}
            ;;
          *"Running tests/"*)
            prefix=${line#*Running }
            prefix=${prefix%% *}
            [ "$dir" = . ] || prefix=$dir/$prefix
            ;;
          "test "*" ... FAILED" | "test "*" has been running for over "*)
            line=${line#test }
            line=${line%% *}
            echo "$((SECONDS - start)) $prefix::$line"
            ;;
          *"process didn't exit successfully"*"signal"*)
            echo "$((SECONDS - start)) $prefix::(crashed)"
            ;;
        esac
      done
    status=${PIPESTATUS[0]}
    [ "$status" = 124 ] && echo "$((SECONDS - start)) $dir::(suite timed out)" >>"$log"
  done | sort -n -s -k1,1 | awk '!seen[$2]++' | while read -r t name; do
    echo "$t $(class_of "$name") $name"
  done
}

# E8's three-writer, history-6 row at the harness's full scale (5 seeds).
e8_row() {
  cargo run -q --offline -p sbft-bench --bin harness -- e8 --csv 2>/dev/null |
    awk -F, '$1 == 3 && $3 == 6 { print $4, $5, $6, $7 }'
}

# The FLUSH workload's one row at the harness's full scale (5 seeds).
flush_row() {
  cargo run -q --offline -p sbft-bench --bin harness -- ablations --csv 2>/dev/null |
    awk -F, 'NR == 3 { print $1, $2, $3, $4 }'
}

build() {
  cargo test -q --offline --workspace --no-run >"$1" 2>&1
}

matrix=$WORK/matrix.md
{
  echo "| mutant | expect | spec kills (first) | pin kills (first) | unit kills (first) | s to first kill | verdict |"
  echo "|---|---|---|---|---|---|---|"
} >"$matrix"
cat "$matrix"
e8_rows=()
flush_rows=()
failed=0

echo "building and testing the clean tree ..." >&2
build "$WORK/clean.build" || die "the clean tree does not build (see $WORK/clean.build)"
run_suites "$WORK/clean.log" >"$WORK/clean.kills"
if [ -s "$WORK/clean.kills" ]; then
  cat "$WORK/clean.kills" >&2
  die "the clean tree fails tests (see $WORK/clean.log); no kill is meaningful"
fi
e8_rows+=("clean $(e8_row)")
flush_rows+=("clean $(flush_row)")

for name in "${NAMES[@]}"; do
  patch=$ROOT/mutants/$name.patch
  expect=$(awk '/^expect:/ { print $2; exit }' "$patch")
  echo "mutant $name ..." >&2
  if ! git apply "$patch" 2>"$WORK/$name.build"; then
    echo "| $name | $expect | – | – | – | – | PATCH DOES NOT APPLY |" | tee -a "$matrix"
    failed=1
    continue
  fi
  if ! build "$WORK/$name.build"; then
    echo "| $name | $expect | – | – | – | – | DOES NOT BUILD |" | tee -a "$matrix"
    failed=1
    git apply -R "$patch"
    continue
  fi
  run_suites "$WORK/$name.log" >"$WORK/$name.kills"
  cells=()
  for class in spec pin unit; do
    n=$(awk -v c=$class '$2 == c' "$WORK/$name.kills" | wc -l)
    first=$(awk -v c=$class '$2 == c { print $3; exit }' "$WORK/$name.kills")
    cells+=("$n${first:+ (\`$first\`)}")
  done
  first_s=$(awk 'NR == 1 { print $1 }' "$WORK/$name.kills")
  spec=$(awk '$2 == "spec"' "$WORK/$name.kills" | wc -l)
  if [ "$spec" -gt 0 ]; then
    verdict=killed
  elif [ -s "$WORK/$name.kills" ]; then
    verdict="survives every spec check"
  else
    verdict="survives every test"
  fi
  if [ "$expect" = must-die ] && [ "$spec" -eq 0 ]; then
    verdict="$verdict — MUST DIE"
    failed=1
  fi
  echo "| $name | $expect | ${cells[0]} | ${cells[1]} | ${cells[2]} | ${first_s:-–} | $verdict |" |
    tee -a "$matrix"
  case $name in
    max-weight | no-union) e8_rows+=("$name $(e8_row)") ;;
    no-flush) flush_rows+=("$name $(flush_row)") ;;
  esac
  git apply -R "$patch" || die "cannot revert $name"
done

{
  echo
  echo "E8's three-writer cell (history 6, 5 seeds):"
  echo
  echo "| tree | reads | union rate | aborts | violations |"
  echo "|---|---|---|---|---|"
  for r in "${e8_rows[@]}"; do echo "| ${r// / | } |"; done
  echo
  echo "The FLUSH workload (2-label pool, wide delays, 5 seeds):"
  echo
  echo "| tree | reads | stale-read violations | aborts | msgs/read |"
  echo "|---|---|---|---|---|"
  for r in "${flush_rows[@]}"; do echo "| ${r// / | } |"; done
} | tee -a "$matrix"

exit $failed
