#!/usr/bin/env bash
# Makes one set of runs the way the driver does: every workload, COUNT
# seeds starting at FIRST, untraced, at BENCHMARK.json's run_seconds,
# each appended to OUT as one JSON line. Two sets of the same commit fed
# to "run.sh --compare" must agree within the bounds.
#
#   benchmark/runset.sh OUT.jsonl [FIRST=1] [COUNT=10]
set -euo pipefail
out="${1:?usage: runset.sh OUT.jsonl [FIRST] [COUNT]}"
first="${2:-1}"
count="${3:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for workload in replay-batch replay-window daemon-live paper-batch; do
	for ((seed = first; seed < first + count; seed++)); do
		"$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" >/dev/null
	done
done
