#!/usr/bin/env bash
# Source line counts (.ml + .mli), the figures ROADMAP.md quotes.
#
#   bench/lines.sh
#
# Prints one "<what><TAB><lines>" row each for lib, lib + bin + bench,
# lib/check/check.ml, bin/dudetm_cli.ml and test.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every .ml and .mli file under the directories given.
count() {
    find "$@" \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l
}

printf 'lib\t%d\n' "$(count lib)"
printf 'lib+bin+bench\t%d\n' "$(count lib bin bench)"
printf 'check.ml\t%d\n' "$(wc -l <lib/check/check.ml)"
printf 'bin/dudetm_cli.ml\t%d\n' "$(wc -l <bin/dudetm_cli.ml)"
printf 'test\t%d\n' "$(count test)"
