#!/bin/sh
# Paired A/B work-count gate.
#
#     tools/count_ab.sh BASE_TREE CAND_TREE [WORKLOAD...]
#
# For each workload (default: every one in CAND_TREE's BENCHMARK.json)
# runs each tree's own `tools/opcount.py WORKLOAD --scale 0.1 --top 0`
# and prints both trees' opcodes/op and calls/op.  Exits 1 if either
# run exits non-zero or CAND's opcodes/op is more than 5 % above BASE's.
# The count repeats exactly on one interpreter, so both trees run under
# the same python3, once each, with no retries.
set -u
bound=5
[ $# -ge 2 ] || { echo "usage: $0 BASE_TREE CAND_TREE [WORKLOAD...]" >&2; exit 2; }
base=$(cd "$1" && pwd) && cand=$(cd "$2" && pwd) || exit 2
shift 2
if [ $# -eq 0 ]; then
    names=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
        <"$cand/BENCHMARK.json") || exit 2
    set -- $names
fi
[ $# -gt 0 ] || { echo "$0: no workloads to count" >&2; exit 2; }
out=$(mktemp -d) || exit 2
trap 'rm -rf "$out"' EXIT
trap 'exit 130' INT TERM
# "opcodes/op 18,505   calls/op 452.9" -> "18505 452.9"
counts() { awk '$1 == "opcodes/op" { gsub(",", ""); print $2, $4; exit }' "$out/$1"; }
status=0
for w in "$@"; do
    for side in base cand; do
        case $side in base) tree=$base ;; *) tree=$cand ;; esac
        python3 "$tree/tools/opcount.py" "$w" --scale 0.1 --top 0 \
            >"$out/$side" 2>&1 \
            || { cat "$out/$side"; echo "FAIL: the $side count of $w exited non-zero"; status=1; }
    done
    awk -v w="$w" -v bound="$bound" -v b="$(counts base)" -v c="$(counts cand)" 'BEGIN {
        split(b, bc, " "); split(c, cc, " ")
        if (bc[1] == "" || cc[1] == "") { print w ": no count to compare"; exit 1 }
        printf "%-22s base %9s opcodes/op %8s calls/op\n", w, bc[1], bc[2]
        printf "%-22s cand %9s opcodes/op %8s calls/op\n", "", cc[1], cc[2]
        rise = 100 * (cc[1] - bc[1]) / bc[1]
        worse = rise > bound
        printf "%-22s opcodes/op %+.2f %% (bound +%s %%): %s\n", w, rise, bound,
            worse ? "WORSE" : "ok"
        exit worse
    }' || status=1
done
[ $status -eq 0 ] && echo "count_ab: pass" || echo "count_ab: FAIL"
exit $status
