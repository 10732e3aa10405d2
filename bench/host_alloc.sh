#!/usr/bin/env bash
# Host allocation per operation of every perfbench workload, against the
# committed figures.
#
#   bench/host_alloc.sh [--update]
#
# Builds perfbench and runs each workload once at --seed 1 --seconds 0,
# reading its alloc_words_per_op: one binary allocates the same words on
# every run.  bench/host_alloc.tsv holds the figures, keyed by the OCaml
# version that built the binary (`ocamlopt -version`).  Prints, per
# workload, the committed figure for this compiler, the fresh one and the
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

# version<TAB>workload<TAB>words for each workload, in BENCHMARK.json's order.
fresh=$(for w in ingest-1s lookup-8s transfer-4s quorum-k3; do
    json=$(./_build/default/perfbench/main.exe --workload "$w" --seed 1 --seconds 0 | tail -n 1)
    case $json in
    '{"correct": true'*) ;;
    *)
        echo "$w failed: $json" >&2
        exit 1
        ;;
    esac
    words=$(echo "$json" | grep -o '"alloc_words_per_op": {"value": [^,}]*' | sed 's/.*: //')
    printf '%s\t%s\t%.2f\n' "$version" "$w" "$words"
done)

if [ "$update" = 1 ]; then
    others=$(awk -F'\t' -v v="$version" 'NR > 1 && $1 != v' "$file" 2>/dev/null || true)
    {
        printf 'ocaml\tworkload\talloc_words_per_op\n'
        [ -z "$others" ] || echo "$others"
        echo "$fresh"
    } >"$file"
    echo "rewrote OCaml $version's rows of bench/host_alloc.tsv:"
    echo "$fresh"
    exit 0
fi

echo "alloc_words_per_op at --seed 1 --seconds 0, OCaml $version"
printf '%-12s %12s %12s %9s\n' workload committed now change
echo "$fresh" | while IFS=$'\t' read -r _ w now; do
    old=$(awk -F'\t' -v v="$version" -v w="$w" '$1 == v && $2 == w { print $3 }' "$file")
    if [ -z "$old" ]; then
        printf '%-12s %12s %12s %9s\n' "$w" - "$now" -
    else
        printf '%-12s %12s %12s %+8.1f%%\n' "$w" "$old" "$now" \
            "$(awk -v a="$old" -v b="$now" 'BEGIN { print 100 * (b - a) / a }')"
    fi
done
