#!/usr/bin/env bash
# Keeps the list of functions no test runs from growing.
#
# Runs the whole suite under coverage (go test -coverpkg=./... ./...),
# keys every function at 0 % as pkg/file.go:Func (no line numbers, so
# edits elsewhere in a file do not churn the keys), and compares the keys
# with the committed testdata/uncovered.txt. A function missing from the
# list fails the check; an entry that tests now cover is printed, so the
# next change can drop it.
#
#   bash .github/uncovered.sh         # check against the list
#   bash .github/uncovered.sh -list   # print this run's keys
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
list=testdata/uncovered.txt
prof=$(mktemp)
trap 'rm -f "$prof"' EXIT

go test -count=1 -coverpkg=./... -coverprofile="$prof" ./... >/dev/null
current=$(go tool cover -func="$prof" | awk -v mod="$(go list -m)/" '
	$NF == "0.0%" {
		split($1, loc, ":")
		file = substr(loc[1], length(mod) + 1)
		print file ":" $2
	}' | sort -u)

if [ "${1:-}" = -list ]; then
	printf '%s\n' "$current"
	exit 0
fi
covered=$(comm -13 <(printf '%s\n' "$current") "$list")
added=$(comm -23 <(printf '%s\n' "$current") "$list")
if [ -n "$covered" ]; then
	echo "Covered now; drop these from $list:"
	printf '  %s\n' $covered
fi
if [ -n "$added" ]; then
	echo "No test runs these functions, and $list does not list them."
	echo "Test them, or delete them:"
	printf '  %s\n' $added
	exit 1
fi
echo "Every function outside $list runs in the test suite."
