#!/usr/bin/env bash
# Same-session A/B runs of one command against a baseline commit.
#
#   scripts/ab.sh [-n N] BASE -- CMD...
#
# Exports commit BASE with `git archive` into a fresh temporary
# directory (under $TMPDIR, default /tmp), builds both that tree and
# the current working tree (`cargo build --release --workspace`, then
# one untimed warm-up run of CMD each, which compiles whatever CMD
# itself builds), and then runs CMD N times (default 3) in each tree.
# Runs alternate which tree goes first: run 1 is base then head, run 2
# head then base, and so on, so drift within the session (thermal,
# other tenants) lands on both sides. Every run's output is printed in
# full under a `=== <tree> run <i>/<N> ===` label; CMD's exit status is
# reported after each run and a failing run fails the script.
#
# Needs no network (the workspace builds from `vendor/`) and changes no
# setting of the machine. The temporary tree is removed on exit.
#
# Example (BENCH_NOTES.md records each invocation beside its table):
#   scripts/ab.sh -n 3 HEAD~1 -- \
#       cargo bench -p urpsm-bench --bench planner
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh [-n N] BASE -- CMD..." >&2
    exit 2
}

runs=3
if [[ "${1:-}" == "-n" ]]; then
    [[ $# -ge 2 && "$2" =~ ^[1-9][0-9]*$ ]] || usage
    runs=$2
    shift 2
fi
[[ $# -ge 3 && "$2" == "--" ]] || usage
base=$1
shift 2

head_dir=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$head_dir" rev-parse --verify "$base^{commit}") || usage
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
base_dir=$tmp/base
mkdir "$base_dir"
git -C "$head_dir" archive "$base_rev" | tar -x -C "$base_dir"

echo "# base: $base ($base_rev) in $base_dir"
echo "# head: working tree $head_dir ($(git -C "$head_dir" rev-parse --short HEAD), $(git -C "$head_dir" status --porcelain | wc -l) changed paths)"
echo "# cmd:  $*"
echo "# runs: $runs per tree, alternating order"

run_in() {
    local label=$1 dir=$2 tag=$3 status=0
    echo "=== $label $tag ==="
    (cd "$dir" && "${@:4}") || status=$?
    echo "=== $label $tag: exit $status ==="
    return "$status"
}

for side in base head; do
    dir=$base_dir
    [[ $side == head ]] && dir=$head_dir
    echo "=== $side build ==="
    (cd "$dir" && cargo build --release --workspace --quiet)
    if ! run_in "$side" "$dir" "warm-up" "$@" >"$tmp/warm-up.log" 2>&1; then
        cat "$tmp/warm-up.log"
        exit 1
    fi
done

for ((i = 1; i <= runs; i++)); do
    if ((i % 2 == 1)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        dir=$base_dir
        [[ $side == head ]] && dir=$head_dir
        run_in "$side" "$dir" "run $i/$runs" "$@"
    done
done
