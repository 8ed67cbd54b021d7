// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (problem detection), Table III (task-signature
// accuracy), Figure 9 (loss/logging CDFs), Figure 10 (DD robustness),
// Figure 11 (PC stability), Figure 12 (CI stability), Figure 13
// (scalability), and the dependency matrices of Figures 2b/8, plus the
// ablation studies called out in DESIGN.md. Each experiment returns a
// structured result with a text rendering that matches the paper's
// presentation.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
)

// model builds a log's application and infrastructure signatures the way
// the product models a current capture: one pipeline pass over the
// events, no stability intervals.
func model(log *flowlog.Log, r *appgroup.Resolver, cfg signature.Config) ([]signature.AppSignature, signature.InfraSignature, error) {
	p, err := signature.NewPipelineFromSourceContext(context.Background(), signature.LogSource(log), r, cfg, 0)
	if err != nil {
		return nil, signature.InfraSignature{}, err
	}
	return p.App(), p.Infra(), nil
}

// Series is one plotted line: X positions and Y values.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// renderSeries prints aligned columns for a set of series sharing X.
func renderSeries(title, xName string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if len(series) == 0 {
		sb.WriteString("  (no data)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%12s", xName)
	for _, s := range series {
		fmt.Fprintf(&sb, "%16s", s.Label)
	}
	sb.WriteString("\n")
	for i := range series[0].X {
		fmt.Fprintf(&sb, "%12.3f", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, "%16.4f", s.Y[i])
			} else {
				fmt.Fprintf(&sb, "%16s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
