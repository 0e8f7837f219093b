#!/usr/bin/env bash
# Mutant matrix for the paper's relations (DESIGN.md §1's concordance).
#
#   ci/mutants.sh [ROWS] [OUT]
#
# Copies the work tree (tracked files plus untracked, unignored ones) to a
# scratch directory and checks that every row of ROWS (default
# ci/mutants.txt) matches its file exactly once; a stale row stops the
# script before any test runs. Then, on that copy only, it runs the tier-1
# tests once unmutated (they must pass), and once per row with the row
# applied: `timeout 600 cargo test -q`, after which the file is restored.
# Writes OUT (default results/MUTANTS.md): per row the first test that
# failed and the seconds the build and run took. Exits non-zero on a
# stale row, a failing baseline, or a survivor without an `equivalent:`
# note. MUTANTS_DIR names the scratch directory (default: `mktemp -d`);
# its `target/` is reused from row to row.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
rows=$(realpath "${1:-$root/ci/mutants.txt}")
out=$(realpath -m "${2:-$root/results/MUTANTS.md}")
work=${MUTANTS_DIR:-$(mktemp -d)}
copy=$work/tree
rm -rf "$copy"
mkdir -p "$copy" "$(dirname "$out")"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null -T - --ignore-failed-read -cf -) | tar -xmf - -C "$copy"
# Fresh mtimes (`-m`): cargo judges staleness by mtime, and a reused target/
# may hold a build of a mutant newer than the files just copied.
export CARGO_TARGET_DIR=$work/target

# edit MODE FILE NEEDLE REPLACEMENT: MODE `check` only counts, `apply`
# also rewrites; both fail unless NEEDLE occurs exactly once.
edit() {
    python3 - "$@" <<'PY'
import sys
mode, path, needle, rep = sys.argv[1:5]
needle, rep = needle.replace("\\n", "\n"), rep.replace("\\n", "\n")
text = open(path, encoding="utf-8").read()
if text.count(needle) != 1:
    sys.exit(f"stale row: {path}: needle occurs {text.count(needle)}x: {sys.argv[3]!r}")
if mode == "apply":
    open(path, "w", encoding="utf-8").write(text.replace(needle, rep))
PY
}

mapfile -t lines < <(grep -v '^#' "$rows" | grep -v '^[[:space:]]*$')
for line in "${lines[@]}"; do
    IFS=$'\t' read -r tag file needle rep note <<<"$line"
    edit check "$copy/$file" "$needle" "$rep"
done

# cell TEXT: a markdown table cell, pipes escaped.
cell() { printf '%s' "$1" | sed 's/|/\\|/g'; }

run_tests() { (cd "$copy" && timeout 600 cargo test -q </dev/null >"$work/log" 2>&1); }

start=$(date +%s)
if ! run_tests; then
    echo "mutants: the unmutated tree fails its tests; see $work/log" >&2
    exit 1
fi
baseline=$(($(date +%s) - start))

table=$work/table.md
: >"$table"
killed=0 excused=0 unexplained=0
for line in "${lines[@]}"; do
    IFS=$'\t' read -r tag file needle rep note <<<"$line"
    cp "$copy/$file" "$work/orig"
    edit apply "$copy/$file" "$needle" "$rep"
    start=$(date +%s)
    status=0
    run_tests || status=$?
    secs=$(($(date +%s) - start))
    cp "$work/orig" "$copy/$file"
    if [ "$status" -eq 0 ]; then
        if [ -n "${note:-}" ]; then
            by="survived — $note"
            excused=$((excused + 1))
        else
            by="**survived**"
            unexplained=$((unexplained + 1))
        fi
    else
        killed=$((killed + 1))
        by=$(grep -m1 -oP '^---- \K.+(?= stdout ----)' "$work/log" || true)
        if [ "$status" -eq 124 ]; then
            by="(timeout)"
        elif [ -z "$by" ] && grep -q '^error' "$work/log"; then
            by="(does not compile)"
        elif [ -z "$by" ]; then
            by="(exit $status)"
        else
            by="\`$by\`"
        fi
    fi
    needle=$(printf '%s' "$needle" | sed 's/^ *//; s/\\n */ ⏎ /g')
    rep=$(printf '%s' "$rep" | sed 's/^ *//; s/\\n */ ⏎ /g')
    printf '| %s | `%s` | `%s` → `%s` | %s | %s |\n' "$tag" "$file" \
        "$(cell "$needle")" "$(cell "$rep")" "$(cell "$by")" "$secs" >>"$table"
    echo "mutants: $tag: $by (${secs}s)" >&2
done

rev=$(cd "$root" && git rev-parse --short HEAD)
dirty=$(cd "$root" && git status --porcelain | grep -q . && echo ", uncommitted changes" || true)
{
    echo "# Mutant matrix"
    echo
    echo "\`ci/mutants.sh\` at $rev$dirty, $(date -u +%Y-%m-%d), $(nproc) cores:"
    echo "${#lines[@]} mutants of \`$(realpath --relative-to="$root" "$rows")\`, $killed killed, $excused equivalent,"
    echo "$unexplained unexplained. Each ran \`timeout 600 cargo test -q\` on a copy of"
    echo "the tree; \"killed by\" is the first test that failed, \"s\" the wall seconds"
    echo "of the incremental build and the run (the unmutated run took ${baseline} s)."
    echo
    echo "| tag | file | mutant | killed by | s |"
    echo "|---|---|---|---|---|"
    cat "$table"
} >"$out"
echo "mutants: wrote $out" >&2
[ "$unexplained" -eq 0 ]
