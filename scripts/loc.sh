#!/usr/bin/env bash
# loc.sh — non-test, non-generated Go lines per package, excluding
# benchmark/ (the frozen benchmark harness). ROADMAP aim 2 wants this number
# to go down; CI prints it next to the bench delta on every PR.
# Run from the repo root:  ./scripts/loc.sh        (markdown table on stdout)
set -euo pipefail

echo "| package | files | lines |"
echo "|---|---:|---:|"
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
	xargs -0 grep -L '^// Code generated .* DO NOT EDIT\.$' |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{ files[$1]++; lines[$1] += $2; tf++; tl += $2 }
		END {
			for (p in lines) printf "| %s | %d | %d |\n", p, files[p], lines[p] | "sort"
			close("sort")
			printf "| **total** | %d | %d |\n", tf, tl
		}'
