#!/usr/bin/env sh
# Prints the tracked size number: non-test Go lines outside the nested
# bench module and lint fixtures (ROADMAP aim 2 — "non-test line count
# is a tracked number"). Recorded per PR in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
