#!/usr/bin/env bash
# Regenerate the golden-verdict files pinned under tests/golden/.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
#
# Two sets, each diffed byte-for-byte by ctest:
#  - tests/golden/<workload>.json is the raw byte output of
#      portend classify <workload> --json
#    for one registry workload — the same bytes `classify --all
#    --json` emits per array element (ctest entry golden_<workload>);
#  - tests/golden/run/<name>.txt is the Fig. 6 text of one line
#    `<name> <args...>` of tests/golden/run/configs.txt, i.e. the
#    stdout of `portend <args...>` (ctest entry golden_run_<name>).
# Regenerating therefore always produces a reviewable git diff:
# goldens only change when verdict behavior changes, and that diff
# is the re-review surface.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
PORTEND="$BUILD/portend"
if [[ ! -x "$PORTEND" ]]; then
    echo "error: $PORTEND not built (cmake --build $BUILD)" >&2
    exit 1
fi

mkdir -p tests/golden
workloads=$("$PORTEND" list | awk 'NR > 1 { print $1 }')
for w in $workloads; do
    "$PORTEND" classify "$w" --json > "tests/golden/$w.json"
    echo "regenerated tests/golden/$w.json"
done

while read -r name args; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    # shellcheck disable=SC2086 # args is a word list on purpose
    "$PORTEND" $args < /dev/null > "tests/golden/run/$name.txt"
    echo "regenerated tests/golden/run/$name.txt"
done < tests/golden/run/configs.txt

echo
echo "Goldens regenerated. Review the diff before committing:"
git --no-pager status --short -- tests/golden || true
