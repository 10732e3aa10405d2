#!/usr/bin/env bash
# The crash-campaign golden: runs `dudetm check` rows and compares each
# row's summary and replay lines with its lines in bench/check_golden.txt.
#
#   bench/check_golden.sh [--update] [KEY...]
#
# A KEY is campaign/mutant ("clean" for the unmutated engine); without
# keys every row of the table below runs.  A clean row must pass and a
# mutant row must be caught as "<campaign> campaign: FAIL".  With
# --update the rows' lines in bench/check_golden.txt are rewritten from
# this run instead of compared.  Exit status 1 when any row misbehaves or
# differs.  Each row's wall seconds go to stderr, never into the golden,
# so a log shows what a change did to campaign host cost.
set -u
cd "$(dirname "$0")/.."
golden=bench/check_golden.txt

# KEY | check arguments | DUDETM_CHECK_BUDGET (empty: the default budget)
rows='explore/clean|--quick|
media/clean|--media --quick -s dude|
recovery/clean|--recovery|
daemons/clean|--daemons|
shards/clean|--shards|2
batch/clean|--batch|2
replica/clean|--replica|2
migrate/clean|--migrate|2
snapshot/clean|--snapshot|2
serve/clean|--serve|2
explore/early-durable|--quick|
explore/unfenced-reproduce|--quick|
media/skip-crc-verify|--media --quick -s dude|
recovery/skip-recovery-journal|--recovery|
shards/skip-fragment-gate|--shards|2
batch/skip-batch-seal|--batch|2
replica/skip-quorum-gate|--replica|
migrate/skip-handoff-seal|--migrate|
snapshot/skip-snapshot-validate|--snapshot|
serve/skip-admission-gate|--serve|'

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
for key in "$@"; do
  grep -q "^$key|" <<<"$rows" || { echo "unknown row $key" >&2; exit 2; }
done
selected() { [ $# -eq 0 ] && return 0; for k in "$@"; do [ "$k" = "$row_key" ] && return 0; done; return 1; }

dune build bin/dudetm_cli.exe || exit 1
cli=_build/default/bin/dudetm_cli.exe
status=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
: >"$tmp/golden"
while IFS='|' read -r row_key args budget; do
  if ! selected "$@"; then
    awk -F'\t' -v k="$row_key" '$1 == k' "$golden" >>"$tmp/golden"
    continue
  fi
  mutant=${row_key#*/}
  mutate=()
  [ "$mutant" = clean ] || mutate=(--mutate "$mutant")
  start=$EPOCHREALTIME
  # shellcheck disable=SC2086
  out=$(DUDETM_CHECK_BUDGET=$budget timeout 600 "$cli" check $args "${mutate[@]}" 2>&1)
  code=$?
  echo "$out"
  awk -v k="$row_key" -v a="$start" -v b="$EPOCHREALTIME" \
    'BEGIN { printf "%s: %.2f s wall\n", k, b - a }' >&2
  if [ "$mutant" = clean ]; then
    [ "$code" -eq 0 ] || { echo "$row_key: clean campaign failed"; status=1; }
  elif [ "$code" -eq 0 ]; then
    echo "$row_key: mutant was NOT caught"
    status=1
  elif ! grep -q "^${row_key%/*} campaign: FAIL" <<<"$out"; then
    echo "$row_key: campaign errored without reporting the mutant"
    status=1
  fi
  grep -E '^[a-z]+ campaign: |^  replay: ' <<<"$out" >"$tmp/actual"
  awk -v k="$row_key" '{ print k "\t" $0 }' "$tmp/actual" >>"$tmp/golden"
  if [ "$update" -eq 0 ]; then
    awk -F'\t' -v k="$row_key" '$1 == k { print $2 }' "$golden" >"$tmp/expected"
    diff -u --label "$row_key (golden)" --label "$row_key (this run)" \
      "$tmp/expected" "$tmp/actual" || status=1
  fi
done <<<"$rows"
[ "$update" -eq 1 ] && cp "$tmp/golden" "$golden"
exit $status
