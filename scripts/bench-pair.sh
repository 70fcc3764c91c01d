#!/usr/bin/env bash
# Paired before/after measurement of one BENCHMARK.json workload, by the
# rule of the choosing-metrics guide §8: N pairs of (parent, change) runs of
#   benchmark/run.sh --workload W --trace 0 --seed <pair number>
# alternating which side runs first, then per end-to-end metric both sides'
# median and quartiles, how many pairs the change won, and whether that is a
# gain (wins >= 9/10 of the pairs, ties counting for neither side, and the
# medians further apart than the parent's own interquartile distance).
#
#   scripts/bench-pair.sh <workload> [pairs=10]
#
# The change is the working tree, uncommitted edits included. The parent is
# BASE (default HEAD~1), exported with `git archive` into
# .bench_build/pair/parent — a plain copy, so nothing is registered in .git
# and both sides build from source with benchmark/run.sh exactly as the
# gate does. The export is reused while BASE names the same commit. Raw
# result lines are kept in .bench_build/pair/<workload>.*.jsonl.
set -euo pipefail
workload="${1:?usage: scripts/bench-pair.sh <workload> [pairs=10]}"
pairs="${2:-10}"
base="${BASE:-HEAD~1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pair"
parent="$work/parent"

# Re-export only when BASE names another commit: the export keeps the
# parent's build cache (benchmark/run.sh puts it under .bench_build), so a
# second call for the same parent does not rebuild it from nothing.
rev="$(git -C "$root" rev-parse "$base")"
if [ "$(cat "$parent/.bench-pair-rev" 2>/dev/null)" != "$rev" ]; then
	rm -rf "$parent"
	mkdir -p "$parent"
	git -C "$root" archive "$rev" | tar -x -C "$parent"
	echo "$rev" >"$parent/.bench-pair-rev"
fi
echo "parent: $(git -C "$root" rev-parse --short "$base")   change: working tree at $(git -C "$root" rev-parse --short HEAD)   workload: $workload   pairs: $pairs"

# one <side> <dir> <seed>: run once, append the result line to the side's file.
one() {
	local line
	line="$(bash "$2/benchmark/run.sh" --workload "$workload" --trace 0 --seed "$3" | tail -n 1)"
	echo "$line" >>"$work/$workload.$1.jsonl"
	echo "  $1 seed=$3 $(echo "$line" | sed -E 's/.*"correct":([a-z]+),"attempted":([0-9]+),"failed":([0-9]+).*"ops_s":\{"value":([0-9.e+-]+).*/correct=\1 attempted=\2 failed=\3 ops_s=\4/')"
}

: >"$work/$workload.parent.jsonl"
: >"$work/$workload.change.jsonl"
for ((i = 1; i <= pairs; i++)); do
	echo "pair $i/$pairs"
	if ((i % 2)); then
		one parent "$parent" "$i"
		one change "$root" "$i"
	else
		one change "$root" "$i"
		one parent "$parent" "$i"
	fi
done

# values <side> <metric>: one value per run, in pair order.
values() {
	sed -E "s/.*\"$2\":\{\"value\":([0-9.e+-]+).*/\1/" "$work/$workload.$1.jsonl"
}

# stats <side> <metric>: "median q1 q3" over the side's runs.
stats() {
	values "$1" "$2" | sort -g | awk '
		function quantile(q,    pos, lo) {
			pos = (NR - 1) * q + 1; lo = int(pos)
			return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
		}
		{ v[NR] = $1 }
		END { print quantile(.5), quantile(.25), quantile(.75) }'
}

echo
printf '%-11s %34s %35s %7s  %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' wins verdict
for m in ops_s:higher lat_p50_us:lower lat_p95_us:lower setup_s:lower; do
	name="${m%%:*}"
	read -r pm p1 p3 < <(stats parent "$name")
	read -r cm c1 c3 < <(stats change "$name")
	paste <(values parent "$name") <(values change "$name") | awk -v name="$name" -v better="${m##*:}" \
		-v pm="$pm" -v p1="$p1" -v p3="$p3" -v cm="$cm" -v c1="$c1" -v c3="$c3" '
		$1 != $2 && (better == "higher") == ($2 > $1) { wins++ }
		END {
			gap = cm - pm; if (better == "lower") gap = -gap
			verdict = "no gain shown"
			if (wins >= 0.9 * NR && gap > p3 - p1) verdict = "gain"
			else if (gap < 0) verdict = "worse median"
			printf "%-11s %12.5g [%8.5g, %8.5g] %12.5g [%8.5g, %8.5g] %3d/%-2d  %s (%+.1f %% of parent median)\n",
				name, pm, p1, p3, cm, c1, c3, wins, NR, verdict, (cm - pm) / pm * 100
		}'
done
echo
for side in parent change; do
	awk -v side="$side" '
		{ f = $0; sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f); failed += f
		  a = $0; sub(/.*"attempted":/, "", a); sub(/[^0-9].*/, "", a); attempted += a
		  if ($0 ~ /"correct":false/) bad++ }
		END { printf "%-7s failed %d of %d ops attempted, %d of %d runs incorrect\n", side, failed, attempted, bad, NR }' \
		"$work/$workload.$side.jsonl"
done
