#!/usr/bin/env bash
# Seeded mutants: every one must be caught by the test it names.
#
#   scripts/mutants.sh [--rev REV] [NNN ...]
#
# Each tests/mutants/NNN-name.patch begins with a line
#
#   Must-fail: <command>
#
# then a sentence on what the mutation breaks, then a unified diff
# against the repository root. The script exports REV (default HEAD)
# with `git archive` into a temporary directory (no worktree is
# registered in .git) and first runs every named command once on the
# unmutated copy: each must pass there, or a failure under a mutant
# would prove nothing. Then, one patch at a time, it applies the patch,
# runs its command, and reverts the patch. A mutant counts as caught
# when the command exits non-zero. A patch that no longer applies, a
# mutant that does not compile, or one whose command already fails on
# the unmutated copy counts as not caught. All builds share one target
# directory in the copy.
#
# With NNN arguments only the mutants with those numbers run. Exits 1
# unless every mutant that ran was caught. Not part of check.sh: a full
# pass rebuilds the workspace once per mutant.
set -euo pipefail

usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev=HEAD
only=()
while [ $# -gt 0 ]; do
    case "$1" in
        --rev)
            [ $# -ge 2 ] || usage
            rev="$2"
            shift 2
            ;;
        [0-9][0-9][0-9])
            only+=("$1")
            shift
            ;;
        *) usage ;;
    esac
done

patches=()
for p in "$root"/tests/mutants/[0-9][0-9][0-9]-*.patch; do
    n="$(basename "$p")"
    if [ ${#only[@]} -eq 0 ] || [[ " ${only[*]} " == *" ${n:0:3} "* ]]; then
        patches+=("$p")
    fi
done
[ ${#patches[@]} -gt 0 ] || { echo "no mutants selected" >&2; exit 2; }

must_fail() {
    sed -n '1s/^Must-fail: //p' "$1"
}

sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$tmp"
git -C "$tmp" init -q # so `git apply` patches the copy and nothing around it
export CARGO_TARGET_DIR="$tmp/target"
echo "mutants of $rev ($(git -C "$root" rev-parse --short "$sha")) in $tmp" >&2

# Every distinct command must pass before any mutant is applied.
declare -A clean
for p in "${patches[@]}"; do
    cmd="$(must_fail "$p")"
    [ -n "$cmd" ] || { echo "$(basename "$p"): no Must-fail line" >&2; exit 2; }
    if [ -z "${clean[$cmd]:-}" ]; then
        if (cd "$tmp" && bash -c "$cmd") >"$tmp/clean.log" 2>&1; then
            clean[$cmd]=pass
        else
            clean[$cmd]=fail
            echo "FAILS UNMUTATED: $cmd" >&2
            tail -5 "$tmp/clean.log" >&2
        fi
    fi
done

caught=0
missed=0
for p in "${patches[@]}"; do
    name="$(basename "$p" .patch)"
    cmd="$(must_fail "$p")"
    start=$SECONDS
    if [ "${clean[$cmd]}" != pass ]; then
        verdict="NOT CAUGHT (command fails unmutated)"
    elif ! git -C "$tmp" apply "$p" 2>"$tmp/apply.log"; then
        verdict="NOT CAUGHT (patch does not apply: $(head -1 "$tmp/apply.log"))"
    else
        if (cd "$tmp" && bash -c "$cmd") >"$tmp/$name.log" 2>&1; then
            verdict="NOT CAUGHT (command passed)"
        elif grep -q 'could not compile' "$tmp/$name.log"; then
            verdict="NOT CAUGHT (does not build)"
        else
            verdict="caught"
        fi
        git -C "$tmp" apply -R "$p"
    fi
    if [ "$verdict" = caught ]; then
        caught=$((caught + 1))
    else
        missed=$((missed + 1))
    fi
    printf '%-45s %-6s %s\n' "$name" "$((SECONDS - start))s" "$verdict"
done
echo "$caught of $((caught + missed)) mutants caught"
[ "$missed" -eq 0 ]
