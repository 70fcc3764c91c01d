#!/usr/bin/env bash
# The per-layer cost ledger of one BENCHMARK.json workload, parent beside
# change: one traced run per side of
#   benchmark/run.sh --workload W --trace 1 --seed SEED
# then every per-layer metric BENCHMARK.json lists, as parent / change / Δ %.
# It says where a change's cost or saving sits, layer by layer; whether the
# change is a gain end to end is scripts/bench-pair.sh's verdict.
#
#   scripts/bench-ledger.sh <workload>
#
# The change is the working tree, uncommitted edits included. The parent is
# BASE (default HEAD~1), exported with `git archive` into
# .bench_build/ledger/parent exactly as bench-pair.sh exports it. SEED
# (default 1) is both runs' seed. The two result lines are kept in
# .bench_build/ledger/<workload>.{parent,change}.json. A value of -1 is the
# benchmark's mark for a layer that is not on the workload's path.
set -euo pipefail
workload="${1:?usage: scripts/bench-ledger.sh <workload>}"
base="${BASE:-HEAD~1}"
seed="${SEED:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/ledger"
parent="$work/parent"

rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$base" | tar -x -C "$parent"
echo "parent: $(git -C "$root" rev-parse --short "$base")   change: working tree at $(git -C "$root" rev-parse --short HEAD)   workload: $workload   seed: $seed"

for side in parent change; do
	dir="$root"
	[ "$side" = parent ] && dir="$parent"
	bash "$dir/benchmark/run.sh" --workload "$workload" --trace 1 --seed "$seed" | tail -n 1 >"$work/$workload.$side.json"
	echo "  $side $(sed -E 's/.*"correct":([a-z]+),"attempted":([0-9]+),"failed":([0-9]+).*/correct=\1 attempted=\2 failed=\3/' "$work/$workload.$side.json")"
done

# value <side> <metric>: the metric's value in the side's result line, or
# nothing when the line does not carry it.
value() {
	sed -nE "s/.*\"${2//./\\.}\":\{\"value\":([0-9.e+-]+).*/\1/p" "$work/$workload.$1.json"
}

echo
printf '%-28s %-6s %14s %14s %9s  %s\n' metric unit parent change 'Δ %' better
# BENCHMARK.json writes each per-layer metric as name, unit, better lines.
awk '/"per_layer"/ { on = 1 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"unit"/ { gsub(/[",]/, "", $2); unit = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, unit, $2 }' "$root/BENCHMARK.json" |
	while read -r name unit better; do
		awk -v name="$name" -v unit="$unit" -v better="$better" -v p="$(value parent "$name")" -v c="$(value change "$name")" '
			BEGIN {
				if (p == "" || c == "") d = "missing"
				else if (p == -1 || c == -1) d = "absent"
				else if (p == 0) d = c == 0 ? "+0.0" : "n/a"
				else d = sprintf("%+.1f", (c - p) / (p < 0 ? -p : p) * 100)
				printf "%-28s %-6s %14s %14s %9s  %s\n", name, unit,
					p == "" ? "-" : sprintf("%.6g", p), c == "" ? "-" : sprintf("%.6g", c), d, better
			}'
	done
