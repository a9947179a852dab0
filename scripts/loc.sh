#!/usr/bin/env bash
# Prints the size of the code base: non-test Go lines per package,
# largest first, then a total line. A line counts when it is any line
# of a *.go file that is not a *_test.go file, outside benchmark/ (the
# ruler is its own module). ROADMAP.md's line figures use this count.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
    xargs -0 wc -l |
    awk '
        $2 == "total" { next }
        {
            dir = $2
            sub(/\/[^\/]*$/, "", dir)
            sub(/^\.\/?/, "", dir)
            if (dir == "") dir = "."
            lines[dir] += $1
            total += $1
        }
        END {
            for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k1,1nr -k2,2"
            close("sort -k1,1nr -k2,2")
            printf "%7d  total\n", total
        }'
