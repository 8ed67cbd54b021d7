// Seeds for the obsspan analyzer: dynamic names, duplicate names,
// instrumented roots that do or do not reach their promised spans, and
// table keys that name no function. The root table is swapped in by the
// test.
package obsfix // want "instrumented root flowdiff/internal/obsfix.OldContext names no function" "instrumented root \\(\\*flowdiff/internal/obsfix.T\\).OldContext names no function"

import (
	"context"

	"flowdiff/internal/obs"
)

// GoodContext reaches both of its promised spans (one transitively).
func GoodContext(ctx context.Context) {
	defer obs.Span(ctx, "fix.good").End()
	stage(ctx)
}

func stage(ctx context.Context) {
	defer obs.Span(ctx, "fix.stage").End()
}

// BareContext promises fix.missing but never reaches an open of it.
func BareContext(ctx context.Context) { // want "BareContext no longer reaches an open of span \"fix.missing\""
	defer obs.Span(ctx, "fix.bare").End()
}

// Dynamic passes a non-constant span name.
func Dynamic(ctx context.Context, name string) {
	defer obs.Span(ctx, name).End() // want "span name is not a compile-time constant"
}

// Dup reopens a name stage already owns.
func Dup(ctx context.Context) {
	defer obs.Span(ctx, "fix.stage").End() // want "span name \"fix.stage\" is already opened by flowdiff/internal/obsfix.stage"
}

// RegistryDup duplicates through the Registry entry point too.
func RegistryDup(ctx context.Context) {
	sp := obs.From(ctx).Span("fix.good") // want "span name \"fix.good\" is already opened by flowdiff/internal/obsfix.GoodContext"
	sp.End()
}
