// Package root is the dependent half of the cross-package fact
// propagation fixture: every derived fact here requires leaf's facts
// to already be final, which is what the dependency-ordered store
// guarantees.
package root

import (
	"fmt"

	"flowdifflint-testdata/facts/leaf"
)

// Wraps propagates a sentinel-wrapped callee error: SentinelWrapped.
func Wraps() error {
	if err := leaf.Fail(); err != nil {
		return fmt.Errorf("root: %w", err)
	}
	return nil
}

// BadWrap wraps an identity-less callee error: not SentinelWrapped.
func BadWrap() error {
	if err := leaf.Bad(); err != nil {
		return fmt.Errorf("root: %w", err)
	}
	return nil
}
