package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/topology"
	"flowdiff/internal/workload"
)

// TestDetectReadsEveryFormat: -detect goes through the one front door,
// so the same capture finds the same detections whichever of the two
// serializations it arrives in.
func TestDetectReadsEveryFormat(t *testing.T) {
	topo, err := topology.Lab()
	if err != nil {
		t.Fatal(err)
	}
	taskRun, err := workload.GenerateTaskRun(topo, time.Second, workload.VMMigration("V1", "V2", "NFS"), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	capture := flowlog.New(0, time.Minute)
	for i, k := range taskRun.Flows {
		capture.Append(flowlog.Event{Time: taskRun.Times[i], Type: flowlog.EventPacketIn, Switch: "tor-1", Flow: k})
	}
	capture.Sort()

	dir := t.TempDir()
	var want string
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"json", capture.WriteJSON},
		{"fdc1", func(w io.Writer) error { return colseg.Write(w, capture, colseg.WriterOptions{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data bytes.Buffer
			if err := tc.write(&data); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "capture."+tc.name)
			if err := os.WriteFile(path, data.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"-task", "vm-migration", "-train", "20", "-detect", path}, &out); err != nil {
				t.Fatal(err)
			}
			_, got, found := strings.Cut(out.String(), "detections in "+path+": ")
			if !found || strings.HasPrefix(got, "0\n") {
				t.Fatalf("no detections reported:\n%s", out.String())
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("detections differ from the JSON capture's:\n got %s\nwant %s", got, want)
			}
		})
	}
}
