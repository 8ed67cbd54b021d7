package flowdiff_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"flowdiff"
	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog/colseg"
)

// Example demonstrates the complete FlowDiff pipeline: simulate the lab
// data center, crash an application server during the second capture,
// and diagnose the difference between the two logs.
func Example() {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{
		Seed:   7,
		Faults: []faults.Injector{faults.AppCrash{Host: "S3"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := flowdiff.Compare(context.Background(), res.L1, res.L2, nil, flowdiff.Thresholds{}, res.Options())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top hypothesis:", report.Problems[0].Problem)
	fmt.Println("top suspect:", report.Ranking[0].Component)
	// Output:
	// top hypothesis: application failure
	// top suspect: S3
}

// ExampleBuildSignaturesReader builds signatures from an FDC1 capture
// as a stream, one decoded segment at a time, never the whole event
// slice; a read filter narrows the build to one time window, and only
// the segments overlapping it are decoded.
func ExampleBuildSignaturesReader() {
	res, err := flowdiff.RunScenario(flowdiff.Scenario{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	// An FDC1 capture, as `flowdiff convert -to columnar` writes one.
	var capture bytes.Buffer
	if err := colseg.Write(&capture, res.L1, colseg.WriterOptions{}); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	src, err := flowdiff.NewColumnarSourceOptions(ctx, &capture, flowdiff.ColumnarOptions{
		Filter: flowdiff.ReadFilter{From: time.Minute, To: 3 * time.Minute},
	})
	if err != nil {
		log.Fatal(err)
	}
	sigs, err := flowdiff.BuildSignaturesReader(ctx, src, res.Options())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window [%v, %v): %d application groups\n", sigs.Log.Start, sigs.Log.End, len(sigs.Apps))
	// Output:
	// window [1m0s, 3m0s): 2 application groups
}
