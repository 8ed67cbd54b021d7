package checks_test

import (
	"testing"

	"flowdiff/internal/lint/checks"
	"flowdiff/internal/lint/linttest"
)

// Each analyzer is pinned against a testdata package seeded with
// violations and golden `// want` diagnostics. Path-scoped analyzers are
// additionally re-run over the same files under an out-of-scope pretend
// import path and must stay silent.

func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata/src/mapiter", "flowdiff/internal/example/mapiter", checks.MapIter)
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock", "flowdiff/internal/simnet/clockpkg", checks.WallClock)
}

func TestWallClockScopedToVirtualTimePackages(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/wallclock", "flowdiff/internal/controller/clockpkg", checks.WallClock)
}

// The instrumented scope (the root flowdiff package) bans direct
// wall-clock reads in production code but exempts _test.go files.
func TestWallClockInstrumentedScope(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock_instrumented", "flowdiff", checks.WallClock)
}

// The instrumented scope matches exact package paths only: the root
// "flowdiff" entry must not sweep flowdiff/cmd or flowdiff/examples.
func TestWallClockInstrumentedScopeIsExact(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/wallclock_instrumented", "flowdiff/cmd/flowdiff", checks.WallClock)
}

func TestFloatCmp(t *testing.T) {
	linttest.Run(t, "testdata/src/floatcmp", "flowdiff/internal/core/diff/cmppkg", checks.FloatCmp)
}

func TestFloatCmpScopedToStatsPackages(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/floatcmp", "flowdiff/internal/workload/cmppkg", checks.FloatCmp)
}

func TestErrCheck(t *testing.T) {
	linttest.Run(t, "testdata/src/errcheck", "flowdiff/cmd/errpkg", checks.ErrCheck)
}

func TestErrCheckScopedToEntryPoints(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/errcheck", "flowdiff/internal/stats/errpkg", checks.ErrCheck)
}

func TestErrCheckDeferredInFlowlog(t *testing.T) {
	linttest.Run(t, "testdata/src/errcheck_defer", "flowdiff/internal/flowlog/deferpkg", checks.ErrCheck)
}

func TestErrCheckDeferredInEntryPoints(t *testing.T) {
	linttest.Run(t, "testdata/src/errcheck_defer", "flowdiff/cmd/deferpkg", checks.ErrCheck)
}

func TestErrCheckDeferredOutOfScope(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/errcheck_defer", "flowdiff/internal/stats/deferpkg", checks.ErrCheck)
}

func TestSentinelErr(t *testing.T) {
	linttest.Run(t, "testdata/src/sentinelerr", "flowdiff", checks.SentinelErr)
}

// The sentinel contract binds the public boundary only — the exact
// root package path, not internal packages.
func TestSentinelErrScopedToRootPackage(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/sentinelerr", "flowdiff/internal/rootfix", checks.SentinelErr)
}

func TestObsSpan(t *testing.T) {
	saved := checks.ObsSpanRoots
	checks.ObsSpanRoots = map[string][]string{
		"flowdiff/internal/obsfix.GoodContext": {"fix.good", "fix.stage"},
		"flowdiff/internal/obsfix.BareContext": {"fix.bare", "fix.missing"},
		// Roots renamed without their entries: reported once, in the
		// package the key points into. A key into a package outside the
		// loaded set is not this run's concern.
		"flowdiff/internal/obsfix.OldContext":      {"fix.good"},
		"(*flowdiff/internal/obsfix.T).OldContext": {"fix.good"},
		"flowdiff/internal/elsewhere.NotLoaded":    {"fix.good"},
	}
	defer func() { checks.ObsSpanRoots = saved }()
	linttest.RunMulti(t, []linttest.TestPackage{
		{Dir: "testdata/src/obsfake", Path: "flowdiff/internal/obs"},
		{Dir: "testdata/src/obsspan", Path: "flowdiff/internal/obsfix"},
	}, checks.ObsSpan)
}

// Span detection matches the registry's full import path: the same
// shapes against an obs stand-in at a foreign path stay silent.
func TestObsSpanMatchesRealRegistryPathOnly(t *testing.T) {
	linttest.RunMulti(t, []linttest.TestPackage{
		{Dir: "testdata/src/obsfake", Path: "example.com/obs"},
		{Dir: "testdata/src/obsspan_outofscope", Path: "example.com/obsfix"},
	}, checks.ObsSpan)
}

// The whole suite over every testdata package at once must reproduce
// exactly the union of the golden diagnostics — analyzers must not
// interfere with each other.
func TestSuiteDisjoint(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock", "flowdiff/internal/simnet/clockpkg", checks.All()...)
}
