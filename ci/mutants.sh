#!/usr/bin/env bash
# Run the mutant catalog: apply each mutant of ci/mutants.txt (or the
# catalog given as the first argument) to a copy of the tree, one at a
# time, and require the tier-1 tests (`cargo test -q` at the repository
# root) to fail on it. Exits non-zero if a mutant survives, if its pattern
# does not occur exactly once in its file, if a mutant does not build, or
# if the unmutated copy does not pass tier-1. The checked-in tree is only
# read: every edit happens in the copy.
#
# Usage: ci/mutants.sh [catalog]
# The copy lives under $TMPDIR (default /tmp) and is removed at exit; set
# CARGO_TARGET_DIR to keep its build between runs.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
catalog=$(realpath "${1:-$root/ci/mutants.txt}")
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
# Tracked and untracked, not ignored, files: the tree as it is checked out.
# Extracted with fresh modification times: cargo keys path crates by their
# path within the workspace, so a reused target directory would otherwise
# take the build of an earlier mutant for that of an older source file.
git -C "$root" ls-files -z --cached --others --exclude-standard |
    tar -C "$root" --null -T - -cf - | tar -C "$work/tree" -xmf -
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
cd "$work/tree"

echo "== unmutated tree"
cargo test -q --no-fail-fast > "$work/clean.log" 2>&1 ||
    { cat "$work/clean.log"; echo "the unmutated tree fails tier-1"; exit 1; }

survived=0
while IFS=$'\t' read -r file pattern replacement; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    echo "== $file: '$pattern' -> '$replacement'"
    cp "$file" "$work/original"
    python3 - "$file" "$pattern" "$replacement" <<'EOF'
import sys
path, pattern, replacement = sys.argv[1:]
src = open(path).read()
n = src.count(pattern)
if n != 1:
    sys.exit(f"{path}: the pattern occurs {n} times, not once")
open(path, "w").write(src.replace(pattern, replacement))
EOF
    cargo test -q --no-run > "$work/build.log" 2>&1 ||
        { cat "$work/build.log"; echo "the mutant does not build"; exit 1; }
    if cargo test -q --no-fail-fast > "$work/mutant.log" 2>&1; then
        echo "SURVIVED: tier-1 passes"
        survived=$((survived + 1))
    else
        echo "killed by:"
        grep -E '^    [A-Za-z0-9_:]+$' "$work/mutant.log" | sort -u || true
    fi
    # A fresh modification time, so that cargo rebuilds the restored file.
    cp "$work/original" "$file"
done < "$catalog"

if [ "$survived" -ne 0 ]; then
    echo "$survived mutant(s) survived tier-1"
    exit 1
fi
echo "every mutant was killed"
