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

// The instrumented scope (root flowdiff, internal/parallel) bans direct
// wall-clock reads in production code but exempts _test.go files.
func TestWallClockInstrumentedScope(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock_instrumented", "flowdiff/internal/parallel", checks.WallClock)
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

func TestLockSafe(t *testing.T) {
	linttest.Run(t, "testdata/src/locksafe", "flowdiff/internal/example/locksafe", checks.LockSafe)
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

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxflow", "flowdiff/internal/ctxfix", checks.CtxFlow)
}

// cmd/ and examples are where root contexts belong: out of scope.
func TestCtxFlowScopedToLibraryCode(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/ctxflow", "flowdiff/cmd/ctxfix", checks.CtxFlow)
}

func TestSentinelErr(t *testing.T) {
	linttest.Run(t, "testdata/src/sentinelerr", "flowdiff", checks.SentinelErr)
}

// The sentinel contract binds the public boundary only — the exact
// root package path, not internal packages.
func TestSentinelErrScopedToRootPackage(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/sentinelerr", "flowdiff/internal/rootfix", checks.SentinelErr)
}

func TestSpawnJoin(t *testing.T) {
	linttest.Run(t, "testdata/src/spawnjoin", "flowdiff/internal/sjfix", checks.SpawnJoin)
}

func TestSpawnJoinScopedToProductionTree(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/spawnjoin", "flowdiff/examples/sjfix", checks.SpawnJoin)
}

func TestObsSpan(t *testing.T) {
	saved := checks.ObsSpanRoots
	checks.ObsSpanRoots = map[string][]string{
		"flowdiff/internal/obsfix.GoodContext": {"fix.good", "fix.stage"},
		"flowdiff/internal/obsfix.BareContext": {"fix.bare", "fix.missing"},
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

func TestDetOrder(t *testing.T) {
	saved := checks.DetOrderRoots
	checks.DetOrderRoots = []string{
		"flowdiff/internal/dofix.Root",
		"flowdiff/internal/dofix.SortedRoot",
		"flowdiff/internal/dofix.Consume",
		"flowdiff/internal/dofix.FieldRoot",
	}
	defer func() { checks.DetOrderRoots = saved }()
	linttest.Run(t, "testdata/src/detorder", "flowdiff/internal/dofix", checks.DetOrder)
}

// With the real root table (none of which exist in the fixture) the
// whole package sits outside every root's cone: silent.
func TestDetOrderQuietOutsideRootCones(t *testing.T) {
	linttest.RunExpectNone(t, "testdata/src/detorder", "flowdiff/internal/dofix", checks.DetOrder)
}

// The whole suite over every testdata package at once must reproduce
// exactly the union of the golden diagnostics — analyzers must not
// interfere with each other.
func TestSuiteDisjoint(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock", "flowdiff/internal/simnet/clockpkg", checks.All()...)
}
