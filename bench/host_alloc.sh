#!/usr/bin/env bash
# Host allocation and peak heap of every perfbench workload, against the
# committed figures.
#
#   bench/host_alloc.sh [--update]
#
# Builds perfbench and runs each workload once at --seed 1 --seconds 0,
# reading its alloc_words_per_op and peak_heap_mb: one binary allocates
# the same words and reaches the same top heap on every run.
# bench/host_alloc.tsv holds the figures, keyed by the OCaml version that
# built the binary (`ocamlopt -version`).  Prints, per workload and
# metric, the committed figure for this compiler, the fresh one and the
# change in percent, and exits 0 whatever they read: another compiler
# allocates differently, so the figures are shown, never gated.  It exits
# non-zero only when a run fails.  With --update it rewrites this
# compiler's rows instead, keeping the other compilers' rows.
set -euo pipefail
case "$*" in
'') update=0 ;;
--update) update=1 ;;
*)
    echo "usage: $0 [--update]" >&2
    exit 2
    ;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
file=$root/bench/host_alloc.tsv
version=$(ocamlopt -version)
cd "$root"
dune build ./perfbench/main.exe

# The value of metric $2 in perfbench's JSON summary $1.
metric() {
    echo "$1" | grep -o "\"$2\": {\"value\": [^,}]*" | sed 's/.*: //'
}

# version<TAB>workload<TAB>words<TAB>MB for each workload, in
# BENCHMARK.json's order.
fresh=$(for w in ingest-1s lookup-8s transfer-4s quorum-k3; do
    json=$(./_build/default/perfbench/main.exe --workload "$w" --seed 1 --seconds 0 | tail -n 1)
    case $json in
    '{"correct": true'*) ;;
    *)
        echo "$w failed: $json" >&2
        exit 1
        ;;
    esac
    printf '%s\t%s\t%.2f\t%.2f\n' "$version" "$w" \
        "$(metric "$json" alloc_words_per_op)" "$(metric "$json" peak_heap_mb)"
done)

if [ "$update" = 1 ]; then
    others=$(awk -F'\t' -v v="$version" 'NR > 1 && $1 != v' "$file" 2>/dev/null || true)
    {
        printf 'ocaml\tworkload\talloc_words_per_op\tpeak_heap_mb\n'
        [ -z "$others" ] || echo "$others"
        echo "$fresh"
    } >"$file"
    echo "rewrote OCaml $version's rows of bench/host_alloc.tsv:"
    echo "$fresh"
    exit 0
fi

# "committed now change" for one metric; "-" where nothing is committed.
row() {
    if [ -z "$1" ]; then
        printf ' %10s %10s %8s' - "$2" -
    else
        printf ' %10s %10s %+7.1f%%' "$1" "$2" \
            "$(awk -v a="$1" -v b="$2" 'BEGIN { print 100 * (b - a) / a }')"
    fi
}

echo "alloc_words_per_op and peak_heap_mb at --seed 1 --seconds 0, OCaml $version"
printf '%-12s %10s %10s %8s %10s %10s %8s\n' workload words now change MB now change
echo "$fresh" | while IFS=$'\t' read -r _ w words mb; do
    old_words=$(awk -F'\t' -v v="$version" -v w="$w" '$1 == v && $2 == w { print $3 }' "$file")
    old_mb=$(awk -F'\t' -v v="$version" -v w="$w" '$1 == v && $2 == w { print $4 }' "$file")
    printf '%-12s' "$w"
    row "$old_words" "$words"
    row "$old_mb" "$mb"
    echo
done
