#!/usr/bin/env sh
# The full verification gate: static checks, build, tests (with the race
# detector — Compare's concurrent halves, serve's tenant workers and
# recovery, and task mining run under it), and a 1x smoke pass over
# every benchmark so perf harness rot is caught early.
set -eux
cd "$(dirname "$0")/.."

# Formatting is gated: any file gofmt would rewrite fails the build.
test -z "$(gofmt -l .)"
go vet ./...
# flowdifflint: the repo's own analyzer suite. It machine-checks the
# determinism/concurrency invariants (map-order leaks, wall-clock reads
# in virtual-time packages, float equality in stats comparison, lock
# copies, dropped errors, sentinel-less public errors, joinless
# goroutines, span-table drift) so a violation fails the build before
# the race tests ever run. The -json report is parsed rather than
# trusting the exit code alone: a driver bug that swallowed findings but
# still exited 0 would otherwise pass silently.
LINT_JSON="$(mktemp)"
go run ./cmd/flowdifflint -json ./... > "$LINT_JSON"
grep -q '"count": 0' "$LINT_JSON"
rm -f "$LINT_JSON"
# Suppression audit: every //lint:ignore must name a real analyzer and
# carry a reason, or the typo suppresses nothing while looking like it
# does.
go run ./cmd/flowdifflint -ignores ./... > /dev/null
# Seeded-violation smoke: plant one violation per interprocedural
# analyzer (plus the deferred-close errcheck extension and mapiter's
# struct-field rule) in throwaway overlay packages and require the
# linter to catch every one. This is the end-to-end proof that the
# analyzers are wired into the driver — a suite that silently stopped
# running would still pass the clean run above.
SMOKE_DIR=internal/lintsmoke
SMOKE_FLOWLOG=internal/flowlog/lintsmoke
SMOKE_ROOT=lintsmoke_seed.go
SMOKE_JSON="$(mktemp)"
smoke_cleanup() { rm -rf "$SMOKE_DIR" "$SMOKE_FLOWLOG" "$SMOKE_ROOT" "$SMOKE_JSON"; }
trap smoke_cleanup EXIT
mkdir -p "$SMOKE_DIR" "$SMOKE_FLOWLOG"
cat > "$SMOKE_ROOT" <<'EOF'
package flowdiff

import "errors"

// SmokeSentinel is a CI lint-smoke seed: an exported error with no
// sentinel identity. Never committed; see scripts/ci.sh.
func SmokeSentinel() error { return errors.New("seed") }
EOF
cat > "$SMOKE_DIR/seed.go" <<'EOF'
// Package lintsmoke is a CI seed package: one violation per
// interprocedural analyzer, plus a report field filled in map order.
// Never committed; see scripts/ci.sh.
package lintsmoke

import (
	"context"

	"flowdiff/internal/obs"
)

func SpawnSeed() {
	go func() {}()
}

func ObsSeed(ctx context.Context, name string) {
	defer obs.Span(ctx, name).End()
}

type seedReport struct{ keys []string }

func FieldSeed(r *seedReport, m map[string]int) {
	for k := range m {
		r.keys = append(r.keys, k)
	}
}
EOF
cat > "$SMOKE_FLOWLOG/seed.go" <<'EOF'
// Package lintsmoke seeds the deferred-close errcheck rule. Never
// committed; see scripts/ci.sh.
package lintsmoke

import "os"

func ErrSeed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString("x")
	return err
}
EOF
if go run ./cmd/flowdifflint -json ./... > "$SMOKE_JSON"; then
	echo "lint smoke: seeded violations were not caught" >&2
	exit 1
fi
for name in mapiter sentinelerr spawnjoin obsspan errcheck; do
	grep -q "\"analyzer\": \"$name\"" "$SMOKE_JSON" || {
		echo "lint smoke: analyzer $name missed its seeded violation" >&2
		exit 1
	}
done
smoke_cleanup
trap - EXIT
go build ./...
go test -race ./...
# flowbench is a nested module (bench/go.mod), outside root ./... — vet
# and test it here so an API deletion that breaks the benchmark fails CI
# instead of the next benchmark run. Under -race, for the harness's own
# goroutines and because TestSmoke's traced stream pass is cut by time: a
# writer's 9-window chain must outlast a 37 ms untraced quarter, which
# holds only above ≈ 6 ms a window cycle. An unraced build on a quiet
# host is now faster than that and fails with "no window completed in
# the traced phase" (ROADMAP: size the smoke plan in windows). The traced
# pass writes its trace files into bench/out, which only run.sh creates:
# make it here so the test passes in a fresh checkout too.
mkdir -p bench/out
(cd bench && go vet ./... && go test -race ./...)
# Allocation ratchet (ROADMAP "close the measurement loop", step 1): a
# short flowbench pass per workload listed in scripts/bench_ceilings.txt
# (lines of "<workload> <metric> <ceiling>") must verify against its
# oracle and stay under the committed ceilings — the measured values of
# the change that last lowered them, plus 15 %. stream_fdc1: 393 B/event
# and 0.47 allocs/event from 341.9 / 0.406 once Monitor windows stopped
# building a stability product. stream_json_chunked, the text path: 578
# and 0.94 from 502.6 / 0.814 once ReadJSON stopped going through
# reflection (was 1,396 / 6.85). read_beside_write, the store's read
# direction: 419 and 0.62 from 364.0 / 0.536 once ListReports stopped
# re-parsing unchanged report files (was 384.6 / 1.053, so a list that
# parses every file again fails the allocs ceiling). offline_compare,
# the batch build path with no serve in it: 407 and 0.144 from 353.9 /
# 0.1247 once every build ran serially (was 388.7 / 0.1269). Only the
# allocation metrics are gated: they repeat to under 0.5 % on one host
# and toolchain, the timings (echoed below) do not.
bench_metric() { printf '%s\n' "$BENCH_JSON" | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"; }
BENCH_WORKLOAD=
while read -r workload name ceiling; do
	# One pass per workload: its lines sit together in the file.
	if [ "$workload" != "$BENCH_WORKLOAD" ]; then
		BENCH_WORKLOAD="$workload"
		BENCH_JSON="$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
		case "$BENCH_JSON" in
		'{"correct":true,'*) ;;
		*)
			echo "flowbench: $workload did not verify: $BENCH_JSON" >&2
			exit 1
			;;
		esac
		echo "flowbench $workload timings, not gated: events_per_s=$(bench_metric events_per_s) cycle_p50_ms=$(bench_metric cycle_p50_ms) cycle_p95_ms=$(bench_metric cycle_p95_ms)"
	fi
	awk -v got="$(bench_metric "$name")" -v max="$ceiling" -v name="$workload $name" 'BEGIN {
		if (got == "" || got + 0 > max + 0) { printf "flowbench: %s = %s, ceiling %s\n", name, got, max; exit 1 }
		printf "flowbench: %s = %s (ceiling %s)\n", name, got, max
	}'
done < scripts/bench_ceilings.txt
# Decoder fuzz targets over their seed corpora (-run mode, no fuzzing
# engine): corrupted or hostile captures must fail with wrapped errors,
# never a panic or an unbounded allocation.
go test -run '^Fuzz' ./internal/flowlog/...
# Named-test smokes. go test -run passes silently ("no tests to run")
# when a name matches nothing, so a renamed test would quietly turn its
# smoke into a no-op: each runs with -v and must print one PASS line
# per name.
SMOKE_OUT="$(mktemp)"
named_smoke() {
	pkg="$1"
	shift
	go test -count=1 -v -run "^($(echo "$@" | tr ' ' '|'))\$" "$pkg" > "$SMOKE_OUT" || {
		cat "$SMOKE_OUT"
		exit 1
	}
	for name in "$@"; do
		grep -q "^--- PASS: $name (" "$SMOKE_OUT" || {
			echo "smoke: $name matched no test in $pkg" >&2
			exit 1
		}
	done
}
# Query-equivalence smoke: projected and index-pruned reads must be
# reflect.DeepEqual to the full read — at the colseg layer over both
# format versions, and through the public API on the canonical scenario
# capture. A read engine that silently dropped or reordered events would
# pass the benches but fail here.
named_smoke ./internal/flowlog/colseg TestQueryReadsMatchReference
named_smoke . TestQueryReadsEquivalentOnScenarioCapture
# Serve smoke: boot the real flowdiff binary as a service on a loopback
# port, ingest the canonical Seed-301 capture over HTTP as two tenants,
# and require the fetched reports to be reflect.DeepEqual to an offline
# Monitor run over the same events — the multi-tenant service must
# never diverge from the library pipeline it wraps.
named_smoke ./cmd/flowdiff TestServeSmokeTwoTenantsMatchOffline
# Localization-accuracy smoke: the evidence-voting suspect ranker must
# keep top-1 >= 80% and top-3 >= 95% across 10 seeds on each fabric
# fault scenario, and strictly beat the change-count baseline on
# equal-cost-link-drop (floors pinned inside the test).
named_smoke ./internal/experiments TestLocalizationAccuracy
rm -f "$SMOKE_OUT"
# ./... picks up every bench — the paper-figure and ablation benches,
# the package micro-benches (Mine, Discover, RankSuspects, colseg) and
# their retained naive *Reference counterparts — so harness rot fails
# here. None is a measurement record: flowbench (bench/) is, and the
# ROADMAP carries its table.
go test -run '^$' -bench . -benchtime 1x ./...
# The tracked size number (ROADMAP aim 2): non-test Go lines.
echo "non-test Go lines: $(scripts/loc.sh)"
