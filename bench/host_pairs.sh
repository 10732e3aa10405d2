#!/usr/bin/env bash
# Paired host-cost comparison of two checkouts on one perfbench workload.
#
#   bench/host_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]
#
# Builds perfbench in both checkouts, then runs PAIRS (default 10) pairs
# of `perfbench/main.exe --workload WORKLOAD --seed 1 --seconds SECONDS`
# (default 3), one run per side, alternating which side runs first.  For
# every end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles over the pairs, how many pairs the change won (ties
# count for neither side), and a verdict:
#   gain        the change won at least nine tenths of the pairs and its
#               median is better by more than the parent's interquartile
#               range;
#   regress     the change's median is worse than the parent's by more
#               than the metric's BENCHMARK.json bound (a fraction of the
#               parent's median);
#   unresolved  not a regression, but the parent's interquartile range is
#               wider than the bound, so one could not be told apart, and
#               not every change run reads better than every parent run;
#   -           within the bound.
# Each run's metrics go to stderr as they come, and all of them to
# $HOST_PAIRS_OUT (default: a temporary file, removed at exit) as
# "side pair metric value" lines.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-3}
bench=$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json

for dir in "$parent" "$change"; do
    (cd "$dir" && dune build ./perfbench/main.exe) || exit 1
done

# name<TAB>better<TAB>bound for each end-to-end metric.
directions=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name "\t" better "\t" $2 }' "$bench")

if [ -n "${HOST_PAIRS_OUT:-}" ]; then
    out=$HOST_PAIRS_OUT
    : >"$out"
else
    out=$(mktemp)
    trap 'rm -f "$out"' EXIT
fi

# One run of one side: its metrics as "side pair metric value" lines.
run() {
    local side=$1 pair=$2 dir
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    local json
    json=$(cd "$dir" && ./_build/default/perfbench/main.exe --workload "$workload" --seed 1 \
        --seconds "$seconds" | tail -n 1)
    case $json in
    '{"correct": true'*) ;;
    *)
        echo "$side run $pair failed: $json" >&2
        exit 1
        ;;
    esac
    echo "$json" | grep -o '"[a-z_0-9]*": {"value": [^,]*' |
        sed -E "s/^\"([^\"]*)\": \{\"value\": (.*)$/$side $pair \1 \2/" | tee -a "$out" >&2
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

# "median q1 q3" of the values on stdin (quartiles: medians of the lower
# and upper halves).
stats() {
    sort -g | awk '
        function med(lo, hi,   n, m) {
            n = hi - lo + 1; m = lo + int((n - 1) / 2)
            return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2
        }
        { v[NR] = $1 }
        END {
            h = int(NR / 2)
            printf "%.6g %.6g %.6g\n", med(1, NR), med(1, h > 0 ? h : 1), med(NR - h + 1, NR)
        }'
}

printf '%s, %d pairs at --seconds %s, seed 1\n' "$workload" "$pairs" "$seconds"
printf '%-20s %38s %38s %8s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "wins"
echo "$directions" | while IFS=$'\t' read -r metric better bound; do
    values() { awk -v s="$1" -v m="$metric" '$1 == s && $3 == m { print $4 }' "$out"; }
    [ -n "$(values parent)" ] || continue
    read -r pm pq1 pq3 <<<"$(values parent | stats)"
    read -r cm cq1 cq3 <<<"$(values change | stats)"
    # Wins, then the verdict.  Run values are negated when lower is
    # better, so a larger value always reads better.
    read -r won verdict <<<"$(awk -v m="$metric" -v b="$better" -v bound="$bound" -v n="$pairs" \
        -v pm="$pm" -v cm="$cm" -v iqr="$(awk -v a="$pq3" -v c="$pq1" 'BEGIN { print a - c }')" '
        $3 == m {
            v = b == "lower" ? -$4 : $4
            x[$1, $2] = v; p[$2] = 1
            if ($1 == "parent" && (!("p" in hi) || v > hi["p"])) hi["p"] = v
            if ($1 == "change" && (!("c" in lo) || v < lo["c"])) lo["c"] = v
        }
        END {
            for (k in p) if (x["change", k] > x["parent", k]) w++
            d = b == "lower" ? pm - cm : cm - pm
            ref = pm < 0 ? -pm : pm
            if (d > iqr && 10 * w >= 9 * n) verdict = "gain"
            else if (-d > bound * ref) verdict = "regress"
            else if (iqr > bound * ref && lo["c"] <= hi["p"]) verdict = "unresolved"
            else verdict = "-"
            printf "%d %s\n", w, verdict
        }' "$out")"
    printf '%-20s %12s [%10s, %10s] %12s [%10s, %10s] %4s/%-3s %s\n' "$metric" "$pm" "$pq1" "$pq3" \
        "$cm" "$cq1" "$cq3" "$won" "$pairs" "$verdict"
done
