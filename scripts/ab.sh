#!/usr/bin/env bash
# A/B benchmark: a git revision (A) against the working tree (B).
#
#   scripts/ab.sh <rev> [--workload w[,w...]] [--pairs 10] [--seed s] [--seconds 10]
#
# Exports <rev> (A) and a snapshot of the working tree (B: `git stash
# create` records the tracked files as they stand at start, so `git add`
# new files first) with `git archive` into a temporary directory (no
# worktree is registered in .git), so edits made while it runs cannot
# reach B. Each side builds into its own target directory there,
# whatever CARGO_TARGET_DIR holds, so neither can run the other's
# binary. Then it runs `benchmark/run.sh --workload w` on the two trees,
# alternating, `--pairs` times, flipping which side runs first each pair.
# Without --workload it does this for each of the five workloads in turn.
#
# For every host metric it prints each side's median [q1, q3], B's
# median against A's in %, whether that difference exceeds A's
# interquartile range, and in how many pairs B beat A (all eight
# end-to-end metrics are lower-is-better). The exact metrics, `correct`,
# `attempted`, `failed` and the repetition digest of the result file
# must read the same on every run of both sides; the script says whether
# they do and exits 1 when they do not.
#
# --seed and --seconds pass through to run.sh (defaults: the
# benchmark's, 20220701 and 10 s). The temporary directory goes at exit;
# the per-run values (`side pair metric value` lines, one file per
# workload) stay in target/ab/<UTC time>/.
set -euo pipefail

usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -ge 1 ] || usage
rev="$1"
shift
workloads="trace_dense,trace_sparse,micro_scale,paper_matrix,ctl_mixed"
pairs=10
seed=20220701
seconds=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workloads="$2" ;;
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
snap="$(git -C "$root" stash create)"
snap="${snap:-$(git -C "$root" rev-parse HEAD)}"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
keep="$root/target/ab/$(date -u +%Y%m%dT%H%M%SZ)"
finish() {
    if compgen -G "$tmp/*.runs" >/dev/null; then
        mkdir -p "$keep"
        cp "$tmp"/*.runs "$keep"/
        echo "per-run values kept in $keep" >&2
    fi
    rm -rf "$tmp"
}
trap finish EXIT
mkdir "$tmp/A" "$tmp/B"
git -C "$root" archive "$sha" | tar -x -C "$tmp/A"
git -C "$root" archive "$snap" | tar -x -C "$tmp/B"

echo "A = $rev ($(git -C "$root" rev-parse --short "$sha")), B = working tree" \
    "($(git -C "$root" rev-parse --short "$snap")); $pairs pairs, seed $seed, ${seconds} s runs" >&2
for side in A B; do
    echo "building $side" >&2
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml" >&2
done

# One run of workload $2 on side $1 (A or B) as pair $3: appends
# `side pair name value` lines to $tmp/$2.runs.
run_one() {
    local side="$1" w="$2" pair="$3" tree="$tmp/$1" out
    out="$(CARGO_TARGET_DIR="$tmp/target-$side" bash "$tree/benchmark/run.sh" \
        --workload "$w" --seed "$seed" --seconds "$seconds")"
    awk -v s="$side" -v p="$pair" -v w="$w" '$1 == w && NF == 4 { print s, p, $2, $3 }' \
        <<<"$out" >>"$tmp/$w.runs"
    sed -n 's/.*"digest": "\([0-9a-f]*\)".*/digest \1/p' \
        "$tree/benchmark/target/benchmark/$w.untraced.json" |
        awk -v s="$side" -v p="$pair" '{ print s, p, $1, $2 }' >>"$tmp/$w.runs"
}

status=0
IFS=, read -ra names <<<"$workloads"
for w in "${names[@]}"; do
    : >"$tmp/$w.runs"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="A B"; else order="B A"; fi
        for side in $order; do
            run_one "$side" "$w" "$i"
        done
        echo "$w: pair $i/$pairs done" >&2
    done
    echo
    echo "== $w: A = $rev, B = working tree, $pairs pairs, seed $seed"
    awk -v pairs="$pairs" '
        function sorted(side, name,    n, i, j, t) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, name) in v) s[++n] = v[side, i, name] + 0
            for (i = 2; i <= n; i++) {
                t = s[i]
                for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
                s[j + 1] = t
            }
            return n
        }
        # Linear-interpolated quantile of the first n entries of s.
        function q(n, p,    h, k) {
            h = 1 + (n - 1) * p
            k = int(h)
            return k >= n ? s[n] : s[k] + (h - k) * (s[k + 1] - s[k])
        }
        BEGIN {
            split("control_bytes_per_cp cpu_slack_p99_cores throttled_frac correct attempted failed digest", e, " ")
            for (i in e) exact[e[i]] = 1
        }
        {
            v[$1, $2, $3] = $4
            if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 }
        }
        END {
            printf "%-16s %-30s %-30s %8s %8s %6s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta %", ">IQR(A)", "B wins"
            for (m = 1; m <= names; m++) {
                name = order[m]
                if (name in exact) continue
                n = sorted("A", name); am = q(n, 0.5); a1 = q(n, 0.25); a3 = q(n, 0.75)
                n = sorted("B", name); bm = q(n, 0.5); b1 = q(n, 0.25); b3 = q(n, 0.75)
                wins = 0
                for (i = 1; i <= pairs; i++) if (v["B", i, name] + 0 < v["A", i, name] + 0) wins++
                delta = am != 0 ? sprintf("%+.1f", 100 * (bm - am) / am) : "n/a"
                beyond = (bm - am > a3 - a1 || am - bm > a3 - a1) ? "yes" : "no"
                printf "%-16s %-30s %-30s %8s %8s %6s\n", name,
                    sprintf("%.4g [%.4g, %.4g]", am, a1, a3),
                    sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), delta, beyond, wins "/" pairs
            }
            differ = ""
            for (m = 1; m <= names; m++) {
                name = order[m]
                if (!(name in exact)) continue
                first = v["A", 1, name]
                for (i = 1; i <= pairs; i++)
                    if (v["A", i, name] != first || v["B", i, name] != first) {
                        differ = differ " " name " (A " v["A", i, name] ", B " v["B", i, name] ")"
                        break
                    }
            }
            if (differ == "") {
                print "exact metrics, correct/attempted/failed and digest: identical on every run"
            } else {
                print "DIFFER:" differ
                exit 1
            }
        }' "$tmp/$w.runs" || status=1
done
exit "$status"
