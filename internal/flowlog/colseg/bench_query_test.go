package colseg

import (
	"bytes"
	"context"
	"io"
	"net/netip"
	"testing"
	"time"

	"flowdiff/internal/obs"
)

// benchQueryRead drains one query shape over a pre-encoded capture and
// reports, alongside the usual ns/op, the read engine's own accounting:
// events delivered per second and the payload bytes the query decoded
// vs skipped.
func benchQueryRead(b *testing.B, raw []byte, opts ReaderOptions) {
	b.Helper()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	var events, decoded, skipped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.New()
		ctx := obs.WithRegistry(context.Background(), reg)
		r, err := NewReaderContext(ctx, bytes.NewReader(raw), opts)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += len(batch)
		}
		if n == 0 {
			b.Fatal("query matched no events")
		}
		events = int64(n)
		decoded = reg.Counter("colseg.bytes.decoded").Value()
		skipped = reg.Counter("colseg.bytes.skipped").Value()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/sec, "events/sec")
	}
	b.ReportMetric(float64(decoded), "decoded-B")
	b.ReportMetric(float64(skipped), "skipped-B")
}

// BenchmarkQueryRead tracks the query-aware read engine across the three
// shapes that matter: the full scan (baseline), a projected scan (column
// skipping), and an index-pruned host-pair window scan (segment pruning
// plus decode-time filtering).
func BenchmarkQueryRead(b *testing.B) {
	l := testLog(5*time.Minute, 100_000)
	var buf bytes.Buffer
	if err := Write(&buf, l, WriterOptions{SegmentDuration: 15 * time.Second}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	b.Run("full", func(b *testing.B) {
		benchQueryRead(b, raw, ReaderOptions{})
	})
	b.Run("projected", func(b *testing.B) {
		benchQueryRead(b, raw, ReaderOptions{Columns: ColTime | ColSrc | ColDst})
	})
	b.Run("pruned", func(b *testing.B) {
		benchQueryRead(b, raw, ReaderOptions{
			Filter: Filter{
				From:  1 * time.Minute,
				To:    2 * time.Minute,
				Hosts: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 1, 1}), netip.AddrFrom4([4]byte{10, 0, 2, 1})},
			},
			Columns: ColTime | ColSrc | ColDst,
		})
	})
}
