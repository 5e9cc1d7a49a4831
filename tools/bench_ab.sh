#!/bin/sh
# Paired A/B wall-clock gate.
#
#     tools/bench_ab.sh BASE_TREE CAND_TREE [WORKLOAD...]
#
# For each workload (default: every one in CAND_TREE's BENCHMARK.json)
# runs each tree's own benchmark/run.py once, then CAND_TREE's
# benchmark/compare.py on the pair.  Exits 1 if any run fails its
# checks or any end-to-end metric reads `worse` under BENCHMARK.json's
# bounds.  There are no retries.
#
# Which tree goes first alternates per workload, and it is carried
# across invocations in CAND_TREE/.bench_ab_order (one "WORKLOAD SIDE"
# line per workload, SIDE being the tree that last went first): a
# workload seen before starts from the other side, so two consecutive
# runs on the same trees run every workload once from each side.
set -u
[ $# -ge 2 ] || { echo "usage: $0 BASE_TREE CAND_TREE [WORKLOAD...]" >&2; exit 2; }
base=$(cd "$1" && pwd) && cand=$(cd "$2" && pwd) || exit 2
shift 2
spec() { python3 -c "import json, sys; d = json.load(sys.stdin); print($1)" <"$cand/BENCHMARK.json"; }
seconds=$(spec 'd["run_seconds"]') || exit 2
names=$(spec '" ".join(w["name"] for w in d["workloads"])') || exit 2
[ $# -gt 0 ] || set -- $names
out=$(mktemp -d) || exit 2
trap 'rm -rf "$out"' EXIT
trap 'exit 130' INT TERM
state=$cand/.bench_ab_order
touch "$state" || exit 2
status=0 parity=0
for w in "$@"; do
    case $(awk -v w="$w" '$1 == w { print $2 }' "$state") in
        base) order="cand base" ;;
        cand) order="base cand" ;;
        *) [ $parity -eq 0 ] && order="base cand" || order="cand base" ;;
    esac
    parity=$((1 - parity))
    { awk -v w="$w" '$1 != w' "$state"; echo "$w ${order%% *}"; } >"$out/state"
    mv "$out/state" "$state"
    for side in $order; do
        case $side in base) tree=$base ;; *) tree=$cand ;; esac
        echo "== $w: $side ($tree)"
        python3 "$tree/benchmark/run.py" --workload "$w" --seed 1 --seconds "$seconds" \
            --json "$out/$w.$side.json" >"$out/log" 2>&1 \
            || { cat "$out/log"; echo "FAIL: the $side run of $w exited non-zero"; status=1; }
    done
    if [ -f "$out/$w.base.json" ] && [ -f "$out/$w.cand.json" ]; then
        python3 "$cand/benchmark/compare.py" "$out/$w.base.json" "$out/$w.cand.json" || status=1
    fi
done
[ $status -eq 0 ] && echo "bench_ab: pass" || echo "bench_ab: FAIL"
exit $status
