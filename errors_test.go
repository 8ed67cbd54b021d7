package flowdiff

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
)

// The public API's error contract (machine-checked by the sentinelerr
// analyzer): every failure crossing an exported function carries a
// sentinel identity from errors.go. These pin the boundaries that used
// to export identity-less errors.

// An event older than the monitor's window must surface as
// ErrOutOfOrder, not an anonymous fmt.Errorf.
func TestObserveOutOfOrderSentinel(t *testing.T) {
	baseline := flowlog.New(0, 2*time.Minute)
	baseline.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	m, err := NewMonitor(context.Background(), baseline, time.Minute, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := monitorChainEvents(time.Minute, time.Minute+time.Second, 500*time.Millisecond)[0]
	_, err = m.Observe(context.Background(), stale)
	if err == nil {
		t.Fatal("observing a pre-window event succeeded")
	}
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("error %v does not match ErrOutOfOrder", err)
	}
}

// A stream that is not a columnar log, or a capture under the retired
// version-1 header byte, must surface as ErrBadLog.
func TestColumnarSourceBadLogSentinel(t *testing.T) {
	log := flowlog.New(0, time.Minute)
	log.Events = monitorChainEvents(0, time.Minute, 200*time.Millisecond)
	var v1 bytes.Buffer
	if err := colseg.Write(&v1, log, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	v1.Bytes()[4] = 1 // the version byte
	for name, raw := range map[string][]byte{
		"garbage":   []byte("definitely not an FDC1 stream"),
		"v1 header": v1.Bytes(),
	} {
		_, err := NewColumnarSourceOptions(context.Background(), bytes.NewReader(raw), ColumnarOptions{})
		if err == nil {
			t.Fatalf("%s: opening as a columnar source succeeded", name)
		}
		if !errors.Is(err, ErrBadLog) {
			t.Errorf("%s: error %v does not match ErrBadLog", name, err)
		}
	}
}

// A capture whose header validates but whose payload is corrupt fails
// only once the build reads that segment, and must still surface as
// ErrBadLog, with the decoder's detail kept as the cause.
func TestCorruptColumnarPayloadBadLogSentinel(t *testing.T) {
	ctx := context.Background()
	log := flowlog.New(0, 2*time.Minute)
	log.Events = monitorChainEvents(0, 2*time.Minute, 200*time.Millisecond)
	var buf bytes.Buffer
	if err := colseg.Write(&buf, log, colseg.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The last payload byte, just before the end marker.
	raw[len(raw)-len("FEND")-1] ^= 0xff
	src, err := NewColumnarSourceOptions(ctx, bytes.NewReader(raw), ColumnarOptions{})
	if err != nil {
		t.Fatalf("the header is intact, yet opening failed: %v", err)
	}
	if _, err := BuildSignaturesReader(ctx, src, Options{}); !errors.Is(err, ErrBadLog) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("BuildSignaturesReader: error %v does not match ErrBadLog with the CRC cause", err)
	}
	m, err := NewMonitor(ctx, log, time.Minute, nil, Thresholds{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RediagnoseWindow(ctx, bytes.NewReader(raw), 0, 2*time.Minute, nil); !errors.Is(err, ErrBadLog) {
		t.Errorf("RediagnoseWindow: error %v does not match ErrBadLog", err)
	}
}

// A log whose interval cannot be split into the stability intervals
// must surface as ErrBadLog.
func TestTooShortLogBadLogSentinel(t *testing.T) {
	log := flowlog.New(0, 3) // 3 ns for the default 5 intervals
	log.Events = monitorChainEvents(0, 1, 1)
	if _, err := BuildSignatures(context.Background(), log, Options{}); !errors.Is(err, ErrBadLog) {
		t.Errorf("error %v does not match ErrBadLog", err)
	}
}

// A scenario that cannot be constructed must surface as ErrScenario.
func TestRunScenarioSentinel(t *testing.T) {
	_, err := RunScenario(Scenario{Case: 99})
	if err == nil {
		t.Fatal("running an unknown case succeeded")
	}
	if !errors.Is(err, ErrScenario) {
		t.Errorf("error %v does not match ErrScenario", err)
	}
}
