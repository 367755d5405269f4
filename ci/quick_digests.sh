#!/usr/bin/env bash
# "Same bytes" gate: the stats dump of every benchmark workload, event and
# cycle model, must hash to what ci/quick_digests.txt records. A change that
# only restructures code leaves the file alone; a change that means to alter
# simulated behaviour updates it in the same diff (the unified diff printed on
# failure holds the new lines).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(bash bench/run.sh -quick)
echo "$out"
echo "$out" | awk '/^== /{w=$2} /^(cycle_)?stats_digest /{print w, $1, $2}' |
    diff -u ci/quick_digests.txt -
echo "quick digests: all ten equal ci/quick_digests.txt"
