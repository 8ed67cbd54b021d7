package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/serve"
)

// TestServeSmokeTwoTenantsMatchOffline is the end-to-end service gate:
// it builds the real binary, boots `flowdiff serve` on a loopback
// port, ingests the canonical Seed-301 capture over HTTP as two
// tenants, and requires each tenant's fetched reports to be deeply
// equal to an offline Monitor run over the same events.
func TestServeSmokeTwoTenantsMatchOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary; skipped in -short")
	}
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:        301,
		Case:        1,
		BaselineDur: 30 * time.Second,
		FaultDur:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	const window = 10 * time.Second

	mon, err := flowdiff.NewMonitor(context.Background(), res.L1, window, nil, flowdiff.Thresholds{}, res.Options())
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	var want []flowdiff.MonitorReport
	keep := func(rep *flowdiff.MonitorReport, err error) {
		if err != nil {
			t.Fatalf("offline monitor: %v", err)
		}
		if rep != nil {
			want = append(want, *rep)
		}
	}
	mon.ObserveBatch(context.Background(), res.L2.Events, keep)
	keep(mon.Flush(context.Background()))
	if len(want) == 0 {
		t.Fatal("offline monitor produced no reports")
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "flowdiff")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0",
		"-dir", filepath.Join(tmp, "data"),
		"-window", window.String(),
		"-topo", "lab",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("StderrPipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting serve: %v", err)
	}
	defer func() {
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait()
	}()

	// The bound address is announced on stderr once the listener is up.
	base := ""
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("serve never announced its address (scanner err %v)", sc.Err())
	}
	// Drain the rest of stderr so the child never blocks on a full pipe.
	go func() { _, _ = io.Copy(io.Discard, stderr) }()

	httpDo := func(method, path string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s %s: %v", method, path, err)
		}
		return resp.StatusCode, data
	}
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}

	for _, tenant := range []string{"alpha", "beta"} {
		if code, body := httpDo(http.MethodPut, "/v1/tenants/"+tenant+"/baseline", mustJSON(res.L1)); code != http.StatusCreated {
			t.Fatalf("PUT baseline for %s: status %d, body %s", tenant, code, body)
		}
		if code, body := httpDo(http.MethodPost, "/v1/tenants/"+tenant+"/events", mustJSON(res.L2)); code != http.StatusAccepted {
			t.Fatalf("POST events for %s: status %d, body %s", tenant, code, body)
		}
		if code, body := httpDo(http.MethodPost, "/v1/tenants/"+tenant+"/flush", nil); code != http.StatusOK {
			t.Fatalf("POST flush for %s: status %d, body %s", tenant, code, body)
		}

		code, body := httpDo(http.MethodGet, "/v1/tenants/"+tenant+"/reports", nil)
		if code != http.StatusOK {
			t.Fatalf("GET reports for %s: status %d, body %s", tenant, code, body)
		}
		var list []serve.ReportSummary
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatalf("decoding report list: %v", err)
		}
		var got []flowdiff.MonitorReport
		for _, sum := range list {
			code, body := httpDo(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/reports/%d", tenant, sum.Seq), nil)
			if code != http.StatusOK {
				t.Fatalf("GET report %d for %s: status %d, body %s", sum.Seq, tenant, code, body)
			}
			var rec serve.ReportRecord
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatalf("decoding report %d: %v", sum.Seq, err)
			}
			got = append(got, flowdiff.MonitorReport{From: rec.From, To: rec.To, Report: rec.Report})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s: served reports differ from the offline monitor run (%d vs %d reports)", tenant, len(got), len(want))
		}
	}
}

// TestServeRejectsOneShotFlags pins the serve-mode flag validation:
// -baseline/-current belong to the one-shot comparison and must fail
// with guidance, not a generic flag error.
func TestServeRejectsOneShotFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-baseline", "l1.json"},
		{"--current=l2.json"},
	} {
		err := runServe(args)
		if err == nil {
			t.Fatalf("runServe(%v) accepted a one-shot flag", args)
		}
		if !strings.Contains(err.Error(), "PUT /v1/tenants/{id}/baseline") {
			t.Errorf("runServe(%v) error %q does not point at the API", args, err)
		}
	}
}
