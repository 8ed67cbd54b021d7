package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
)

// Wire types of the versioned /v1 HTTP API. Every response body is
// JSON; request bodies carrying flow logs are accepted in either
// serialization (JSON or FDC1), detected by magic prefix — the same
// auto-detection the CLI uses. A baseline is persisted as FDC1, so a
// baseline body must hold IPv4 flows only.

// BaselineMeta describes a tenant's frozen baseline — the response of
// GET /v1/tenants/{id}/baseline and part of PUT's response.
type BaselineMeta struct {
	// Version counts baseline uploads for this tenant, starting at 1.
	// A hot swap increments it.
	Version int `json:"version"`
	// Events, Start, and End describe the baseline capture.
	Events int           `json:"events"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	// SavedAtUnixNS is the wall-clock time the baseline was persisted.
	SavedAtUnixNS int64 `json:"saved_at_unix_ns"`
}

// IngestResponse acknowledges POST /v1/tenants/{id}/events.
type IngestResponse struct {
	// Accepted is how many events this request enqueued. The whole
	// batch is accepted or rejected atomically: a 202 means every event
	// of the body is queued and will be observed; a 429 means none was.
	Accepted int `json:"accepted"`
	// Queued is the tenant's buffered event count after this request.
	Queued int `json:"queued"`
	// Budget is the tenant's queue budget, for client-side pacing.
	Budget int `json:"budget"`
}

// FlushResponse acknowledges POST /v1/tenants/{id}/flush.
type FlushResponse struct {
	// Flushed reports whether the buffered partial window produced a
	// report (false when the buffer was empty or abstained).
	Flushed bool `json:"flushed"`
	// Seq is the persisted report's sequence number when Flushed.
	Seq uint64 `json:"seq,omitempty"`
}

// ReportRecord is one persisted window diagnosis — the response of
// GET /v1/tenants/{id}/reports/{seq}.
type ReportRecord struct {
	Seq uint64 `json:"seq"`
	// From and To delimit the diagnosed window (MonitorReport bounds).
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
	// SavedAtUnixNS is the persistence time on the server's registry
	// clock; retention GC keys off it, a log segment at a time.
	SavedAtUnixNS int64 `json:"saved_at_unix_ns"`
	// Report is the full diagnosis, byte-identical to an offline
	// Monitor run over the same events.
	Report flowdiff.Report `json:"report"`
}

// ReportSummary is one row of GET /v1/tenants/{id}/reports.
type ReportSummary struct {
	Seq   uint64        `json:"seq"`
	From  time.Duration `json:"from"`
	To    time.Duration `json:"to"`
	Known int           `json:"known"`
	// Unknown counts unexplained changes; Alarm is Unknown > 0.
	Unknown int  `json:"unknown"`
	Alarm   bool `json:"alarm"`
}

// TenantStatus is one row of GET /v1/tenants and the response of
// GET /v1/tenants/{id}.
type TenantStatus struct {
	ID              string `json:"id"`
	BaselineVersion int    `json:"baseline_version"`
	BaselineEvents  int    `json:"baseline_events"`
	// QueueDepth is the buffered (accepted, not yet observed) event
	// count; QueueBudget is the backpressure ceiling.
	QueueDepth  int `json:"queue_depth"`
	QueueBudget int `json:"queue_budget"`
	// EventsAccepted / EventsRejected / EventsObserved are lifetime
	// ingest counters (rejected = arrived on a 429 or 413 response).
	EventsAccepted int64 `json:"events_accepted"`
	EventsRejected int64 `json:"events_rejected"`
	EventsObserved int64 `json:"events_observed"`
	// Windows is how many reports the tenant's monitor has produced;
	// Alarms how many contained unexplained changes.
	Windows int64 `json:"windows"`
	Alarms  int64 `json:"alarms"`
	// LastError is the most recent ingest/persistence error ("" when
	// healthy). An out-of-order event lands here, not in the stream.
	LastError string `json:"last_error,omitempty"`
}

// TenantList is the response of GET /v1/tenants.
type TenantList struct {
	Tenants []TenantStatus `json:"tenants"`
}

// Health is the response of /healthz and /readyz.
type Health struct {
	Status string `json:"status"`
	// Detail carries the failing probe on a 503.
	Detail string `json:"detail,omitempty"`
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The client hung up mid-write; nothing to clean up server-side.
	_ = enc.Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps an ingest/baseline request body. Generous: the
// per-tenant event budget bounds accepted work far below this; the cap
// only stops a hostile client from exhausting memory before decode.
const maxBodyBytes = 1 << 30

// decodeLog reads a request body in either flow-log serialization
// (colseg.ReadAnyInto), capped at maxBodyBytes. Either body decodes
// onto dst (see ReadAnyInto). ctx governs (and its obs registry
// observes) a columnar decode.
func decodeLog(ctx context.Context, r io.Reader, dst []flowlog.Event) (*flowlog.Log, error) {
	return colseg.ReadAnyInto(ctx, io.LimitReader(r, maxBodyBytes), colseg.ReaderOptions{}, dst)
}

// validTenantID reports whether id is a safe path component: 1..64
// characters of [a-zA-Z0-9._-], not starting with a dot. Everything
// else is rejected with a 400 before touching the store.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}
