#!/bin/sh
# benchdiff.sh — compare named hot-path benchmarks between the working tree
# (HEAD plus uncommitted changes) and a baseline git ref. The baseline is
# exported with `git archive` into a throwaway directory, so the comparison
# never disturbs the working tree or the repository's worktree list.
#
# Usage:
#   scripts/benchdiff.sh <ref> [bench-regex] [packages...]
#
# Defaults: bench-regex
# 'Step|RunStream|RunMultiJob|EmitChunk|Walk|TLBAccess|HierarchyThrash|PCCRecord|ReplayDecode|RecordColumnar|HawkEyeTick|Demote2M'
# ('Step' also matches Step2M, StepNUMA and StepMultiCore; 'RunMultiJob'
# is eight independent jobs on one scheduler), packages ./internal/vmm
# ./internal/workloads ./internal/tlb ./internal/ptw ./internal/pcc
# ./internal/trace ./internal/ospolicy. Examples:
#
#   scripts/benchdiff.sh HEAD~1
#   scripts/benchdiff.sh 3efe74e 'RunStream' ./internal/vmm
#   THRESHOLD=10 scripts/benchdiff.sh c43f4b5        # CI regression gate
#
# Runs are interleaved. Each package's test binary is built once per tree
# (`go test -c`); then, for every repetition and package, the base and the
# current binary run back to back, base first on odd repetitions and
# current first on even ones, so host drift lands on both sides alike
# instead of on whichever tree ran second. Each run is one -benchmem
# sample per benchmark. The table compares per-benchmark MEDIANS of ns/op,
# B/op and allocs/op over COUNT repetitions and counts the repetitions in
# which the current tree was faster ("wins"). Environment knobs:
#
#   BENCHTIME  per-benchmark budget per repetition (default 2s)
#   COUNT      repetitions per benchmark (default 5; values < 5 are raised)
#   THRESHOLD  max tolerated regression in percent; when set, any benchmark
#              whose median ns/op regresses by more than this — or whose
#              median B/op or allocs/op regresses by more than this (any
#              growth from a zero baseline counts) — exits 1 after the table
#              prints (unset: report only)
set -eu

ref=${1:?usage: scripts/benchdiff.sh <ref> [bench-regex] [packages...]}
regex=${2:-'Step|RunStream|RunMultiJob|EmitChunk|Walk|TLBAccess|HierarchyThrash|PCCRecord|ReplayDecode|RecordColumnar|HawkEyeTick|Demote2M'}
if [ $# -ge 2 ]; then shift 2; else shift $#; fi
pkgs=${*:-"./internal/vmm ./internal/workloads ./internal/tlb ./internal/ptw ./internal/pcc ./internal/trace ./internal/ospolicy"}
benchtime=${BENCHTIME:-2s}
count=${COUNT:-5}
[ "$count" -ge 5 ] 2>/dev/null || count=5
threshold=${THRESHOLD:-}

root=$(git rev-parse --show-toplevel)
cd "$root"

wt=$(mktemp -d "${TMPDIR:-/tmp}/benchdiff.XXXXXX")
trap 'rm -rf "$wt"' EXIT INT TERM

echo "benchdiff: baseline $ref vs working tree ($(git rev-parse --short HEAD)+dirty?), $count interleaved reps x $benchtime" >&2
mkdir -p "$wt/base" "$wt/bin"
git archive "$ref" | tar -x -C "$wt/base"

# tree_of base|cur prints the source tree of that side.
tree_of() {
    if [ "$1" = base ]; then echo "$wt/base"; else echo "$root"; fi
}

# binary side pkg prints the path of that side's test binary for pkg.
binary() {
    echo "$wt/bin/$1-$(echo "$2" | tr -c 'A-Za-z0-9\n' '_').test"
}

# Build every package's test binary once per side. A package without tests,
# or one missing from the baseline, simply has no binary on that side.
for side in base cur; do
    for pkg in $pkgs; do
        (cd "$(tree_of "$side")" && go test -c -o "$(binary "$side" "$pkg")" "$pkg" >/dev/null 2>&1) ||
            echo "benchdiff: $side: $pkg does not build; skipped on that side" >&2
    done
done

# run_bench side pkg rep appends "rep name ns_per_op bytes_per_op
# allocs_per_op" for each benchmark of one run to $wt/side.txt. Values are
# picked by their unit, since a benchmark that calls SetBytes prints an MB/s
# column between ns/op and B/op. The binary runs from its package
# directory, as `go test` would run it.
run_bench() {
    bin=$(binary "$1" "$2")
    [ -x "$bin" ] || return 0
    (cd "$(tree_of "$1")/$2" &&
        "$bin" -test.run '^$' -test.bench "$regex" -test.benchtime "$benchtime" \
            -test.benchmem -test.count 1 -test.timeout 60m 2>/dev/null) |
        awk -v rep="$3" '/^Benchmark/ {
            sub(/-[0-9]+$/, "", $1)
            ns = by = al = ""
            for (i = 3; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i-1)
                if ($i == "B/op") by = $(i-1)
                if ($i == "allocs/op") al = $(i-1)
            }
            print rep, $1, ns, by, al
        }' >>"$wt/$1.txt"
}

: >"$wt/base.txt"
: >"$wt/cur.txt"
rep=1
while [ "$rep" -le "$count" ]; do
    for pkg in $pkgs; do
        if [ $((rep % 2)) -eq 1 ]; then
            run_bench base "$pkg" "$rep"
            run_bench cur "$pkg" "$rep"
        else
            run_bench cur "$pkg" "$rep"
            run_bench base "$pkg" "$rep"
        fi
    done
    echo "benchdiff: repetition $rep of $count done" >&2
    rep=$((rep + 1))
done

# medians reduces "rep name v1 v2 v3" lines to one "name m1 m2 m3" line per
# name (per-column medians), preserving first-seen order.
medians() {
    awk '
        function med(s,  a, cnt, x, y, val) {
            cnt = split(s, a, " ")
            for (x = 2; x <= cnt; x++) {   # insertion sort: COUNT is tiny
                val = a[x] + 0
                for (y = x - 1; y >= 1 && a[y] + 0 > val; y--) a[y+1] = a[y]
                a[y+1] = val
            }
            if (cnt % 2) return a[(cnt+1)/2]
            return (a[cnt/2] + a[cnt/2+1]) / 2
        }
        {
            ns[$2] = ns[$2] " " $3; by[$2] = by[$2] " " $4; al[$2] = al[$2] " " $5
            if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 }
        }
        END {
            for (i = 1; i <= n; i++) {
                name = order[i]
                print name, med(ns[name]), med(by[name]), med(al[name])
            }
        }' "$1"
}

# wins name prints "k/n": of the n repetitions both sides ran, the k in
# which the current tree's ns/op was lower.
wins() {
    awk -v n="$1" '
        FNR == NR { if ($2 == n) base[$1] = $3; next }
        $2 == n && ($1 in base) { pairs++; if ($3 + 0 < base[$1] + 0) won++ }
        END { printf "%d/%d", won, pairs }' "$wt/base.txt" "$wt/cur.txt"
}

before=$(medians "$wt/base.txt")
after=$(medians "$wt/cur.txt")

# regressed b a t: 1 when a regresses past t percent over b (any growth from
# a zero baseline is a regression).
regressed() {
    awk -v b="$1" -v a="$2" -v t="$3" 'BEGIN {
        if (b == 0) { print (a > 0) ? 1 : 0; exit }
        print ((a - b) / b * 100 > t) ? 1 : 0
    }'
}

echo
echo "== medians over $count interleaved reps (ns/op, B/op, allocs/op) =="
printf '%-30s %11s %11s %7s %5s  %9s %9s  %7s %7s\n' \
    benchmark "base(ns)" "cur(ns)" delta wins "base(B)" "cur(B)" "base(al)" "cur(al)"
fail=0
for name in $(printf '%s\n' "$before" | awk '{ print $1 }'); do
    set -- $(printf '%s\n' "$before" | awk -v n="$name" '$1 == n { print $2, $3, $4 }')
    [ $# -eq 3 ] || continue
    bns=$1 bby=$2 bal=$3
    set -- $(printf '%s\n' "$after" | awk -v n="$name" '$1 == n { print $2, $3, $4 }')
    [ $# -eq 3 ] || continue
    ans=$1 aby=$2 aal=$3
    line=$(awk -v n="$name" -v bns="$bns" -v ans="$ans" -v bby="$bby" -v aby="$aby" \
        -v bal="$bal" -v aal="$aal" -v w="$(wins "$name")" 'BEGIN {
        printf "%-30s %11.2f %11.2f %+6.1f%% %5s  %9d %9d  %7d %7d", \
            n, bns, ans, (ans - bns) / (bns == 0 ? 1 : bns) * 100, w, bby, aby, bal, aal
    }')
    bad=""
    if [ -n "$threshold" ]; then
        [ "$(regressed "$bns" "$ans" "$threshold")" = 1 ] && bad="$bad ns/op"
        [ "$(regressed "$bby" "$aby" "$threshold")" = 1 ] && bad="$bad B/op"
        [ "$(regressed "$bal" "$aal" "$threshold")" = 1 ] && bad="$bad allocs/op"
    fi
    if [ -n "$bad" ]; then
        echo "$line  REGRESSION(>$threshold%:$bad)"
        fail=1
    else
        echo "$line"
    fi
done

if [ "$fail" = 1 ]; then
    echo
    echo "benchdiff: regression beyond ${threshold}% detected" >&2
    exit 1
fi
