#!/bin/sh
# layout-pairs.sh PARENT CHANGE WORKLOADS N [DIR]
#
# Compares two revisions of the benchmark across code layouts. Go aligns
# functions to 32 bytes, so any change moves the code linked after it by 0
# or 32 bytes mod 64, and a comparison at one layout can read that shift as
# a gain or a loss. This script builds each side twice, once as committed
# and once with a 32-byte pad in the first genbase package linked, so every
# later package sits at the other offset, and it alternates the four
# binaries:
#
#   - PARENT, CHANGE: any git revisions of this repository;
#   - WORKLOADS: one benchmark workload, or several separated by commas;
#   - N: the number of rounds; a round runs each binary once, in the order
#     parent/0, change/0, parent/32, change/32, reversed every other round;
#   - DIR: where the checkouts, binaries and runs go (default: a new
#     directory under $TMPDIR or /tmp). It must lie outside the repository.
#
# Each run is `benchmark --workload W --seed 1 --trace 0` from its own
# checkout, at that checkout's run_seconds. The pad lives only in DIR.
# At the end it prints, per workload and end-to-end metric, each side's
# median and quartiles at offset 0, at offset 32 and over both, the change
# against the parent over both (flagged when worse than the metric's bound,
# or unresolved when the parent's quartile spread is wider than it), and any
# run that was incorrect, had failed operations or printed no result. A
# claim must hold at both offsets; the bound applies to the medians over
# both.
#
# Example: scripts/layout-pairs.sh HEAD~1 HEAD ingest-serve 10
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
	exit 2
fi
parent=$1 change=$2 workloads=$3 rounds=$4
repo=$(git rev-parse --show-toplevel)
dir=${5:-$(mktemp -d "${TMPDIR:-/tmp}/layout-pairs.XXXXXX")}
case "$dir" in
/*) ;;
*) dir=$PWD/$dir ;;
esac
case "$dir/" in
"$repo"/*)
	echo "layout-pairs: $dir is inside the repository" >&2
	exit 2
	;;
esac
mkdir -p "$dir/bin" "$dir/runs"
module=github.com/genbase/genbase

# mod64 prints every genbase text symbol of a binary with its address mod 64.
mod64() {
	go tool nm -n "$1" | awk -v m="$module/" '$2=="T" && index($3, m) == 1 {
		h = substr($1, length($1) - 1); d = "0123456789abcdef"
		print $3, ((index(d, substr(h, 1, 1)) - 1) * 16 + index(d, substr(h, 2, 1)) - 1) % 64
	}' | LC_ALL=C sort
}

# moved prints, per genbase package, how many of the symbols two binaries
# share sit at a different address mod 64.
moved() {
	mod64 "$1" >"$dir/a.mod64"
	mod64 "$2" >"$dir/b.mod64"
	LC_ALL=C join "$dir/a.mod64" "$dir/b.mod64" | awk -v m="$module/" '{
		p = substr($1, length(m) + 1); sub(/\..*/, "", p)
		n[p]++; if ($2 != $3) k[p]++
	} END { for (p in n) printf "  %-20s %d/%d moved\n", p, k[p], n[p] }' | LC_ALL=C sort
}

# build SIDE REV archives REV twice and builds SIDE-0 as committed and
# SIDE-32 with the pad.
build() {
	for off in 0 32; do
		rm -rf "$dir/$1-$off"
		mkdir -p "$dir/$1-$off"
		git -C "$repo" archive "$2" | tar -x -C "$dir/$1-$off"
	done
	(cd "$dir/$1-0" && go build -o "$dir/bin/$1-0" ./benchmark)
	first=$(go tool nm -n "$dir/bin/$1-0" | awk -v m="$module" '!f && $2=="T" && index($3, m) == 1 { print $3; f = 1 }')
	pkg=$(echo "$first" | awk -v m="$module" '{ p = substr($1, length(m) + 1); sub(/^\//, "", p); sub(/\..*/, "", p); print p }')
	name=$(cd "$dir/$1-32" && go list -f '{{.Name}}' "./$pkg")
	printf 'package %s\n\nvar layoutPadCount int\n\nfunc init() { layoutPadCount++ }\n' "$name" >"$dir/$1-32/$pkg/layout_pad.go"
	(cd "$dir/$1-32" && go build -o "$dir/bin/$1-32" ./benchmark)
	echo "$1 ($2): pad in ${pkg:-.}; moved against $1-0:"
	moved "$dir/bin/$1-0" "$dir/bin/$1-32"
}

build parent "$parent"
build change "$change"
echo "change-0 against parent-0:"
moved "$dir/bin/parent-0" "$dir/bin/change-0"

for w in $(echo "$workloads" | tr ',' ' '); do
	r=1
	while [ "$r" -le "$rounds" ]; do
		order="parent-0 change-0 parent-32 change-32"
		if [ $((r % 2)) -eq 0 ]; then
			order="change-32 parent-32 change-0 parent-0"
		fi
		for b in $order; do
			out="$dir/runs/$w.$b.$r"
			(cd "$dir/$b" && "$dir/bin/$b" --workload "$w" --seed 1 --trace 0) >"$out.out" 2>"$out.err" || true
			echo "$(date -u +%H:%M:%S) $w round $r $b: $(tail -n 1 "$out.out" | cut -c1-60)"
		done
		r=$((r + 1))
	done
done

python3 - "$dir" "$workloads" "$rounds" <<'EOF'
import json, statistics, sys

dir, workloads, rounds = sys.argv[1], sys.argv[2].split(","), int(sys.argv[3])
contract = json.load(open(f"{dir}/parent-0/BENCHMARK.json"))
defs = contract["end_to_end"]
sides = ["parent", "change"]

def quart(xs):
    # The driver's quartiles: Python's exclusive method.
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3

def fmt(xs):
    if not xs:
        return "no runs"
    q1, q2, q3 = quart(xs)
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"

for w in workloads:
    runs, bad = {}, []
    for s in sides:
        for off in ("0", "32"):
            b = f"{s}-{off}"
            for r in range(1, rounds + 1):
                path = f"{dir}/runs/{w}.{b}.{r}.out"
                try:
                    res = json.loads(open(path).read().strip().splitlines()[-1])
                except (OSError, IndexError, ValueError):
                    bad.append(f"{b} round {r}: no result line ({path})")
                    continue
                if not res.get("correct") or res.get("failed"):
                    bad.append(f"{b} round {r}: correct={res.get('correct')} failed={res.get('failed')} of {res.get('attempted')}")
                for name, m in res["metrics"].items():
                    runs.setdefault((s, off, name), []).append(m["value"])
    print(f"\n{w}: {rounds} rounds, median [q1-q3]")
    for d in defs:
        name = d["name"]
        line = [f"{name} ({d['unit']})"]
        both = {}
        for s in sides:
            xs0, xs32 = runs.get((s, "0", name), []), runs.get((s, "32", name), [])
            both[s] = xs0 + xs32
            line.append(f"{s}: @0 {fmt(xs0)}  @32 {fmt(xs32)}  both {fmt(both[s])}")
        verdict = ""
        if both["parent"] and both["change"]:
            p, c = statistics.median(both["parent"]), statistics.median(both["change"])
            delta = (c - p) / p if p else 0.0
            worse = delta if d["better"] == "lower" else -delta
            q1, q2, q3 = quart(both["parent"])
            spread = (q3 - q1) / q2 if q2 else 0.0
            verdict = f"change {delta:+.1%} over both; parent spread {spread:.1%}"
            if worse > d["bound"]:
                verdict += f", WORSE THAN BOUND {d['bound']}"
            elif spread > d["bound"]:
                verdict += f", UNRESOLVED: spread wider than bound {d['bound']}"
        print("  " + line[0] + "\n    " + "\n    ".join(line[1:]) + "\n    " + verdict)
    print(f"  incorrect, failed or missing runs: {len(bad)}")
    for b in bad:
        print("    " + b)
EOF
echo "runs kept in $dir"
