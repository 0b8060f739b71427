#!/usr/bin/env bash
# Net source-line change against a base revision, measured the same way
# by every PR (ROADMAP: "net line count should go down").
#
#   scripts/loc.sh <base-rev>
#
# Sums `git diff --numstat <base-rev>` (base against the working tree, so
# run it after `git add` for new files to count) over crates/*/src and
# src/bin. crates/shims is excluded; tests/ and benches/ directories are
# outside those paths and are not counted.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: scripts/loc.sh <base-rev>" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
git -C "$root" diff --numstat "$1" -- 'crates/*/src/*' 'src/bin' ':(exclude)crates/shims' |
    awk -v base="$1" '
        $1 != "-" { ins += $1; del += $2; files += 1 }
        END {
            printf "%d files changed since %s: %d insertions, %d deletions, net %+d\n",
                files, base, ins, del, ins - del
        }'
