#!/usr/bin/env bash
# Host-speed gate: runs the cfmbench workloads (bench/README.md) on a parent
# revision and on the working tree, on this machine, in alternating pairs,
# then compares the two sides. Run it from the repository root:
#
#   bash .github/bench-ab.sh <parent-rev>
#
# It exits 1 when cfmbench -compare reports a REGRESSION, or when a run
# fails because a timed operation did not reproduce its golden output.
# The record files and the comparison table are left in .bench_build/ab/.
set -euo pipefail

pairs=10
seconds=5

parent=${1:?usage: bash .github/bench-ab.sh <parent-rev>}
root=$(git rev-parse --show-toplevel)
out="$root/.bench_build/ab"
rm -rf "$out"
mkdir -p "$out"

# An exported copy of the parent, not a worktree: a run that is killed
# leaves nothing registered in the repository.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$parent" | tar -x -C "$tmp"

# side <checkout> <record file> <seed>: one run of every workload.
side() {
	(cd "$1" && bash bench/run.sh --workload all --seed "$3" --seconds "$seconds" -record "$2")
}

for ((i = 1; i <= pairs; i++)); do
	# Alternate which side runs first, so a drift of the host's speed
	# during a pair does not favour one side.
	if ((i % 2)); then
		side "$tmp" "$out/parent.jsonl" "$i"
		side "$root" "$out/change.jsonl" "$i"
	else
		side "$root" "$out/change.jsonl" "$i"
		side "$tmp" "$out/parent.jsonl" "$i"
	fi
done

"$root/.bench_build/bin/cfmbench" -spec "$root/BENCHMARK.json" \
	-compare "$out/parent.jsonl" "$out/change.jsonl" | tee "$out/compare.txt"
