#!/usr/bin/env sh
# The full verification gate: static checks, build, tests (with the race
# detector — Compare's concurrent halves, serve's tenant workers and
# boot recovery run under it), and a 1x smoke pass over every benchmark
# so perf harness rot is caught early.
set -eux
cd "$(dirname "$0")/.."

# Formatting is gated: any file gofmt would rewrite fails the build.
test -z "$(gofmt -l .)"
go vet ./...
# flowdifflint: the repo's own analyzer suite. It machine-checks the
# invariants go vet and -race cannot see (map-order leaks, wall-clock
# reads in virtual-time and instrumented packages, float equality in
# stats comparison, dropped errors, sentinel-less public errors,
# span-table drift) so a violation fails the build before the race tests
# ever run. Lock copies are vet's copylocks above; goroutine joins are
# checked at run time (-race on Compare, the goroutine-settle tests in
# the root package and internal/serve). The -json report is parsed
# rather than trusting the exit code alone: a driver bug that swallowed
# findings but still exited 0 would otherwise pass silently.
LINT_JSON="$(mktemp)"
go run ./cmd/flowdifflint -json ./... > "$LINT_JSON"
grep -q '"count": 0' "$LINT_JSON"
rm -f "$LINT_JSON"
# Suppression audit: every //lint:ignore must name a real analyzer and
# carry a reason, or the typo suppresses nothing while looking like it
# does.
go run ./cmd/flowdifflint -ignores ./... > /dev/null
# Seeded-violation smoke: plant at least one violation per analyzer
# (mapiter's through its struct-field rule, errcheck's through its
# deferred-close extension) in throwaway overlay packages and require the
# linter to catch every analyzer -list prints. This is the end-to-end
# proof that the analyzers are wired into the driver — a suite that
# silently stopped running would still pass the clean run above — and
# taking the list from the driver means a new analyzer without a seed
# fails here.
SMOKE_DIR=internal/lintsmoke
SMOKE_FLOWLOG=internal/flowlog/lintsmoke
SMOKE_STATS=internal/stats/lintsmoke
SMOKE_ROOT=lintsmoke_seed.go
SMOKE_JSON="$(mktemp)"
smoke_cleanup() { rm -rf "$SMOKE_DIR" "$SMOKE_FLOWLOG" "$SMOKE_STATS" "$SMOKE_ROOT" "$SMOKE_JSON"; }
trap smoke_cleanup EXIT
mkdir -p "$SMOKE_DIR" "$SMOKE_FLOWLOG" "$SMOKE_STATS"
cat > "$SMOKE_ROOT" <<'EOF'
package flowdiff

import "errors"

// SmokeSentinel is a CI lint-smoke seed: an exported error with no
// sentinel identity. Never committed; see scripts/ci.sh.
func SmokeSentinel() error { return errors.New("seed") }
EOF
cat > "$SMOKE_DIR/seed.go" <<'EOF'
// Package lintsmoke is a CI seed package: a dynamic span name and a
// report field filled in map order. Never committed; see scripts/ci.sh.
package lintsmoke

import (
	"context"

	"flowdiff/internal/obs"
)

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
// Package lintsmoke seeds the deferred-close errcheck rule and a
// wall-clock read in a virtual-time package. Never committed; see
// scripts/ci.sh.
package lintsmoke

import (
	"os"
	"time"
)

func ErrSeed(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString("x")
	return err
}

func ClockSeed() time.Time { return time.Now() }
EOF
cat > "$SMOKE_STATS/seed.go" <<'EOF'
// Package lintsmoke seeds an exact float comparison in a statistics
// package. Never committed; see scripts/ci.sh.
package lintsmoke

func FloatSeed(a, b float64) bool { return a == b }
EOF
if go run ./cmd/flowdifflint -json ./... > "$SMOKE_JSON"; then
	echo "lint smoke: seeded violations were not caught" >&2
	exit 1
fi
SMOKE_ANALYZERS="$(go run ./cmd/flowdifflint -list | awk '{print $1}')"
test -n "$SMOKE_ANALYZERS"
for name in $SMOKE_ANALYZERS; do
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
# the change that last lowered them, plus 15 %. All four were lowered
# when a Monitor window began to be modeled into the last window's
# storage (recycled signature maps and slabs, a diff that looks keys up
# instead of merging the current groups, allocation-free spans):
# stream_fdc1 18 B/event and 0.073 allocs/event from 15.7 / 0.0632, the
# highest of four passes (they read 14.5-15.7 B/event; was
# 50 / 0.203 from 43.1 / 0.1765, set when the window's statistics began
# to be folded where the signature build meets them; 76 / 0.299 before
# that, 113 / 0.420 before a Monitor compared against a baseline side
# prepared once, and 341.9 / 0.406 before FDC1 ingest decoded onto
# recycled batches).
# stream_json_chunked, the text path: 192 and 0.536 from 167.1 / 0.4660
# (was 223 / 0.665 from 193.3 / 0.5778; 246 / 0.758 before JSON ingest
# decoded onto the recycled batches; reflection-based ReadJSON was
# 1,396 / 6.85).
# read_beside_write, the store's read direction: 34 and 0.147 from
# 29.2 / 0.1280 (was 66 / 0.286 from 57.0 / 0.2486; 106 / 0.463 before
# reports moved into a per-tenant log served from an in-memory index; a
# list that re-parses every report, 384.6 / 1.053, fails the allocs
# ceiling by far).
# offline_compare, the batch build path with no serve in it: 12 and
# 0.027 from 10.34 / 0.0228, the highest of eight passes (they read
# 8.55-10.34 B/event), set when one-shot builds began to borrow pooled
# reader decode state and a pooled extractor (was 134 / 0.074 from
# 116.2 / 0.0639; 135 / 0.100 from 116.9 / 0.0863; 166 / 0.139 before
# occurrences carried 32-byte hops and a streamed build handed its
# chunks back to the pool; 403 before that). Only the allocation
# metrics are gated; the timings (echoed below) are not. Neither
# repeats exactly. On one host and toolchain, passes of one tree spread
# 8 % in bytes on stream_fdc1 (14.5-15.7; allocs held at 0.0632) and
# 7 % on read_beside_write (27.3-29.2; allocs 0.118-0.128), where a few
# fixed allocations are divided by however many events a 3 s pass
# completes, and 21 % on offline_compare (allocs 0.0225-0.0228), where
# a collection that empties the pools makes the next build allocate
# its storage afresh. So a ceiling sits 15 % above the highest of
# several passes, not above one.
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
# A bounded engine run of the FDC1 decode differential: FuzzReadSegment
# holds the one-pass decode kernel to the column passes it replaced
# (decodeBlocksReference) on mutated captures, unfiltered and under
# each time/host filter in queryCases.
go test -run '^$' -fuzz '^FuzzReadSegment$' -fuzztime 20s ./internal/flowlog/colseg
# The same for the JSON scanner: FuzzReadJSON holds ReadJSON to
# encoding/json, decoding each input both onto nothing and onto a
# recycled batch of stale events.
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 20s ./internal/flowlog
# Named-test smokes. go test -run passes silently ("no tests to run")
# when a name matches nothing, so a renamed test would quietly turn its
# smoke into a no-op: each runs with -v and must print one PASS line
# per name. SMOKE_FLAGS adds go test flags (a later -count wins).
SMOKE_OUT="$(mktemp)"
SMOKE_FLAGS=
named_smoke() {
	pkg="$1"
	shift
	go test -count=1 $SMOKE_FLAGS -v -run "^($(echo "$@" | tr ' ' '|'))\$" "$pkg" > "$SMOKE_OUT" || {
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
# Query-equivalence smoke: time- and host-filtered, index-pruned reads
# must be reflect.DeepEqual to the reference filter over the full read
# — at the colseg layer, and through the public API on the canonical
# scenario capture — and the pruned host-pair window scan must decode
# >= 5x fewer payload bytes than the full read. A read engine that
# silently dropped or reordered events would pass the benches but fail
# here.
named_smoke ./internal/flowlog/colseg TestQueryReadsMatchReference TestMembershipPruning TestPrunedScanBytesAcceptance
named_smoke . TestQueryReadsEquivalentOnScenarioCapture
# One-parser smoke: Inspect walks FDC1 metadata with the Reader's own
# parser, so it fails on every metadata mutant exactly as a full read
# does; and `flowdiff inspect -columns` on the scenario capture reports
# one seg line per segment and column totals that add up to 100 %.
named_smoke ./internal/flowlog/colseg TestInspectSharesReaderParser
named_smoke ./cmd/flowdiff TestInspectColumnar
# Format front-door smoke: JSON and FDC1 decode to one log and filter
# alike, and the retired FDL1 magic fails with an error naming it; a
# JSON baseline holding an IPv6 flow, which FDC1 cannot store, gets a
# 400 on both PUT paths with the server up and the tenant unchanged.
named_smoke ./internal/flowlog/colseg TestReadAnyFormats
named_smoke ./internal/serve TestBaselineIPv6Rejected
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
# Mining-oracle smoke: the serial interned miner must mine automata
# DeepEqual to the retained naive string-keyed miner (mineReference).
named_smoke ./internal/core/taskmine TestMineMatchesReference
# Diff-oracle smoke: Compare on a prepared baseline must return changes
# DeepEqual to the retained per-call comparison (compareReference), on
# synthetic cases and on the lab fault scenarios, and one prepared
# baseline must serve concurrent comparisons and come out unchanged.
named_smoke ./internal/core/diff TestCompareMatchesReference TestCompareMatchesReferenceOnLabFaults TestBaselineServesConcurrentCompares
# Flat-uptime smoke (unraced: the race detector's pool drops skip it):
# a Monitor keeps no report it hands back, so 10,000 alarming windows
# leave its live heap within a fixed bound of its size after 100.
named_smoke . TestMonitorHeapFlatInUptime
# Recycling smoke: FDC1 ingest decodes onto batches the tenant workers
# hand back to a shared pool, through pooled decode state, and observe
# whole through Monitor.ObserveBatch; each Monitor window's fold state
# (edge set, FlowRemoved samples) is recycled across windows like its
# chunks. Ten raced rounds of four tenants ingesting at
# once, of decodes onto garbage batches, of batched observation against
# per-event Observe, of interleaved monitors whose reports must outlive
# the windows that produced them, of streamed builds whose signatures
# must outlive the chunks they hand back (a canceled build's included),
# and of windows whose edge sets go A → B → A, must match a fresh
# decode, the offline Monitor, the per-event twin, the reports' first
# digests, fresh builds and fresh window builds.
# The same ten raced rounds drive serve's boot recovery, one tenant per
# CPU: every persisted tenant recovered once, and a canceled boot
# joining the workers it already started. They also drive the report
# log: lists, saves through two stores, GC and deletes racing on two
# tenants must match the decode-every-frame reference, and a last frame
# cut at every byte offset must be skipped and then truncated.
SMOKE_FLAGS="-race -count=10"
named_smoke ./internal/serve TestServeConcurrentFDC1Ingest TestRestartRecoversEveryTenant TestCanceledRecoveryLeavesNoGoroutines TestListReportsCoherentConcurrent TestReportLogTornTail
named_smoke . TestObserveBatchMatchesObserve TestMonitorReportsOutliveTheirWindows TestReleasedBuildAliasesNothing TestMonitorGroupCacheFollowsEdgeSet
named_smoke ./internal/flowlog/colseg TestReadAnyIntoDirtyDestination
SMOKE_FLAGS=
rm -f "$SMOKE_OUT"
# ./... picks up every bench — the paper-figure and ablation benches,
# the package micro-benches (Mine, Discover, RankSuspects, colseg) and
# their retained naive *Reference counterparts — so harness rot fails
# here. None is a measurement record: flowbench (bench/) is, and the
# ROADMAP carries its table.
go test -run '^$' -bench . -benchtime 1x ./...
# The tracked size number (ROADMAP aim 2): non-test Go lines.
echo "non-test Go lines: $(scripts/loc.sh)"
