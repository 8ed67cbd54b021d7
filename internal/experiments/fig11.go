package experiments

import (
	"context"

	"fmt"
	"time"

	"flowdiff"
	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/topology"
)

// Fig11aResult reproduces Figure 11a: the partial correlation between the
// dependent edges web->app and app->db of the first RuBiS group stays
// stable across Table II cases 1-4.
type Fig11aResult struct {
	// PC[i] is the correlation for case i+1.
	PC []float64
}

// Fig11a runs cases 1-4 and extracts the PC between web->app and app->db
// of the RuBiS group (S4 app server, S14 db).
func Fig11a(seed int64, dur time.Duration) (*Fig11aResult, error) {
	if dur == 0 {
		dur = 3 * time.Minute
	}
	res := &Fig11aResult{}
	for num := 1; num <= 4; num++ {
		sc, err := flowdiff.RunScenario(flowdiff.Scenario{
			Seed:        seed + int64(num)*13,
			Case:        num,
			BaselineDur: dur,
			FaultDur:    time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig11a case %d: %w", num, err)
		}
		sigs, err := flowdiff.BuildSignatures(context.Background(), sc.L1, sc.Options())
		if err != nil {
			return nil, err
		}
		pc := 0.0
		for _, app := range sigs.Apps {
			if !app.Group.Contains("S4") {
				continue
			}
			for p, v := range app.PC {
				if p.In.Dst == "S4" && p.Out.Src == "S4" && p.Out.Dst == "S14" {
					pc = v
				}
			}
		}
		res.PC = append(res.PC, pc)
	}
	return res, nil
}

// String renders Figure 11a.
func (r *Fig11aResult) String() string {
	out := "FIGURE 11a: PC between web->S4 and S4->S14 across cases 1-4\n"
	for i, pc := range r.PC {
		out += fmt.Sprintf("  case %d: %.3f\n", i+1, pc)
	}
	return out
}

// Fig11bResult reproduces Figure 11b: PC between S2-S3 and S3-S8 stays
// stable across 10 log intervals for six workload/reuse settings.
type Fig11bResult struct {
	// Series per setting; X = interval index (1-10), Y = PC.
	Series []Series
}

// Fig11b partitions a case-5 log into 10 intervals and computes the PC
// per interval for each Figure 10 setting.
func Fig11b(seed int64, dur time.Duration) (*Fig11bResult, error) {
	if dur == 0 {
		dur = 15 * time.Minute // 10 intervals of 1.5 minutes, as the paper
	}
	pair := signature.EdgePair{
		In:  signature.Edge{Src: "S2", Dst: "S3"},
		Out: signature.Edge{Src: "S3", Dst: "S8"},
	}
	res := &Fig11bResult{}
	for i, setting := range DefaultFig10Settings() {
		p := setting.Params
		p.Duration = dur
		sc, err := flowdiff.RunScenario(flowdiff.Scenario{
			Seed:        seed + int64(i)*37,
			Case5:       &p,
			BaselineDur: dur,
			FaultDur:    time.Second,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig11b %q: %w", setting.Label, err)
		}
		segs, err := sc.L1.Segment(10)
		if err != nil {
			return nil, err
		}
		r := appgroup.NewResolver(sc.Topo)
		cfg := signature.Config{Special: serviceSet()}
		s := Series{Label: setting.Label}
		for k, seg := range segs {
			apps, _, err := model(seg, r, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig11b %q: %w", setting.Label, err)
			}
			pc := 0.0
			for _, app := range apps {
				if v, ok := app.PC[pair]; ok {
					pc = v
				}
			}
			s.X = append(s.X, float64(k+1))
			s.Y = append(s.Y, pc)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

func serviceSet() map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool)
	for _, id := range topology.ServiceNodes {
		out[id] = true
	}
	return out
}

// String renders Figure 11b.
func (r *Fig11bResult) String() string {
	return renderSeries("FIGURE 11b: PC between S2-S3 and S3-S8 per interval", "interval", r.Series)
}
