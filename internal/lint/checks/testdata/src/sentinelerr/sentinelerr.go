// Seeds for the sentinelerr analyzer: errors crossing exported
// functions of the root package with and without sentinel identities.
package flowdiff

import (
	"errors"
	"fmt"
	"os"
)

// ErrThing is the package sentinel.
var ErrThing = errors.New("thing")

func helperBad() error  { return errors.New("no identity") }
func helperGood() error { return fmt.Errorf("wrap: %w", ErrThing) }

// ExportedAdHoc exports an identity-less error.
func ExportedAdHoc() error {
	return errors.New("nope") // want "error without a sentinel identity crosses the public API"
}

// ExportedNoVerb wraps nothing.
func ExportedNoVerb(n int) error {
	return fmt.Errorf("bad %d", n) // want "error without a sentinel identity crosses the public API"
}

// ExportedPropagatesBad re-wraps a callee whose chain never carries a
// sentinel.
func ExportedPropagatesBad() error {
	if err := helperBad(); err != nil {
		return fmt.Errorf("op: %w", err) // want "error propagated from flowdiff.helperBad crosses the public API"
	}
	return nil
}

// ExportedPropagatesGood re-wraps a sentinel-wrapped chain: clean.
func ExportedPropagatesGood() error {
	if err := helperGood(); err != nil {
		return fmt.Errorf("op: %w", err)
	}
	return nil
}

func pairBad() (int, error)  { return 0, errors.New("no identity") }
func pairGood() (int, error) { return 0, fmt.Errorf("wrap: %w", ErrThing) }

// ExportedTupleBad returns a callee's (T, error) pair whose error never
// carries a sentinel.
func ExportedTupleBad() (int, error) {
	return pairBad() // want "error propagated from flowdiff.pairBad crosses the public API"
}

// ExportedTupleGood returns a sentinel-wrapped callee's pair: clean.
func ExportedTupleGood() (int, error) { return pairGood() }

// ExportedSentinel wraps the sentinel directly: clean.
func ExportedSentinel() error { return fmt.Errorf("op: %w", ErrThing) }

// ExportedStdlib propagates an out-of-module error: trusted at the fact
// boundary, no finding.
func ExportedStdlib(path string) error {
	_, err := os.Open(path)
	if err != nil {
		return err
	}
	return nil
}

// internalAdHoc is not the public boundary.
func internalAdHoc() error { return errors.New("fine here") }

// Pub is an exported receiver: its methods are public API.
type Pub struct{}

// Fail exports an identity-less error through a method.
func (p *Pub) Fail() error {
	return errors.New("method") // want "error without a sentinel identity crosses the public API"
}

// hidden is unexported: its exported methods are not public API.
type hidden struct{}

func (h *hidden) Fail() error { return errors.New("unexported receiver") }
