// Package leaf is the dependency half of the cross-package fact
// propagation fixture: it declares sentinel-wrapped and unwrapped
// error paths — everything the root package's facts must be derived
// from.
package leaf

import (
	"errors"
	"fmt"
)

// ErrLeaf is the package sentinel.
var ErrLeaf = errors.New("leaf")

// Fail always wraps the sentinel: SentinelWrapped.
func Fail() error {
	return fmt.Errorf("leaf failed: %w", ErrLeaf)
}

// Bad returns an ad-hoc error: not SentinelWrapped.
func Bad() error {
	return errors.New("no identity")
}
