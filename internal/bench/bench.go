// Package bench holds the evaluation harness: the five benchmark FPVAs of
// Table I (reconstructed with the paper's exact valve counts), the
// one-valve-at-a-time baseline of Sec. IV, the Table-I row generator, and
// the random fault-injection experiment.
//
// The paper's exact channel/obstacle layouts are not published; the
// reconstructions here remove exactly the same number of valves from the
// full grid (full - nv = 1, 4, 9, 16, 36) using long transportation
// channels and obstacle cells, with the 20x20 array carrying the "three
// channels and two obstacles" that Fig. 9 describes.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cutset"
	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/sim"
)

// Case is one Table I row: the array builder plus the paper's reported
// numbers for comparison.
type Case struct {
	Name    string
	Dim     int
	Top     string // hierarchy top level, e.g. "2x2"
	PaperNV int
	PaperNP int
	PaperNC int
	PaperNL int
	PaperN  int
	Build   func() (*grid.Array, error)
}

// Table1Cases returns the five evaluation arrays.
func Table1Cases() []Case {
	return []Case{
		{
			Name: "5x5", Dim: 5, Top: "1x1",
			PaperNV: 39, PaperNP: 5, PaperNC: 8, PaperNL: 4, PaperN: 17,
			Build: func() (*grid.Array, error) {
				a, err := grid.NewStandard(5, 5)
				if err != nil {
					return nil, err
				}
				// One short channel: full 40 - 1 = 39 valves.
				if _, err := a.SetChannelH(2, 1, 2); err != nil {
					return nil, err
				}
				return a, nil
			},
		},
		{
			Name: "10x10", Dim: 10, Top: "2x2",
			PaperNV: 176, PaperNP: 4, PaperNC: 18, PaperNL: 4, PaperN: 26,
			Build: func() (*grid.Array, error) {
				a, err := grid.NewStandard(10, 10)
				if err != nil {
					return nil, err
				}
				// One transportation channel: 180 - 4 = 176.
				if _, err := a.SetChannelH(4, 2, 6); err != nil {
					return nil, err
				}
				return a, nil
			},
		},
		{
			Name: "15x15", Dim: 15, Top: "3x3",
			PaperNV: 411, PaperNP: 8, PaperNC: 28, PaperNL: 8, PaperN: 44,
			Build: func() (*grid.Array, error) {
				a, err := grid.NewStandard(15, 15)
				if err != nil {
					return nil, err
				}
				// One obstacle (4 valves) + one channel (5): 420 - 9 = 411.
				if _, err := a.SetObstacle(7, 7); err != nil {
					return nil, err
				}
				if _, err := a.SetChannelH(3, 2, 7); err != nil {
					return nil, err
				}
				return a, nil
			},
		},
		{
			Name: "20x20", Dim: 20, Top: "4x4",
			PaperNV: 744, PaperNP: 16, PaperNC: 38, PaperNL: 16, PaperN: 70,
			Build: func() (*grid.Array, error) {
				a, err := grid.NewStandard(20, 20)
				if err != nil {
					return nil, err
				}
				// Fig. 9's three channels and two obstacles:
				// 760 - (4+4) - (3+3+2) = 744.
				for _, f := range []func() (int, error){
					func() (int, error) { return a.SetObstacle(5, 5) },
					func() (int, error) { return a.SetObstacle(14, 14) },
					func() (int, error) { return a.SetChannelH(2, 3, 6) },
					func() (int, error) { return a.SetChannelV(10, 8, 11) },
					func() (int, error) { return a.SetChannelH(16, 10, 12) },
				} {
					if _, err := f(); err != nil {
						return nil, err
					}
				}
				return a, nil
			},
		},
		{
			Name: "30x30", Dim: 30, Top: "6x6",
			PaperNV: 1704, PaperNP: 20, PaperNC: 58, PaperNL: 20, PaperN: 98,
			Build: func() (*grid.Array, error) {
				a, err := grid.NewStandard(30, 30)
				if err != nil {
					return nil, err
				}
				// Two obstacles (8) + three channels (10+10+8):
				// 1740 - 36 = 1704.
				for _, f := range []func() (int, error){
					func() (int, error) { return a.SetObstacle(7, 7) },
					func() (int, error) { return a.SetObstacle(20, 20) },
					func() (int, error) { return a.SetChannelH(10, 2, 12) },
					func() (int, error) { return a.SetChannelV(15, 12, 22) },
					func() (int, error) { return a.SetChannelH(25, 15, 23) },
				} {
					if _, err := f(); err != nil {
						return nil, err
					}
				}
				return a, nil
			},
		},
	}
}

// FindCase returns the Table I case with the given name.
func FindCase(name string) (Case, error) {
	for _, c := range Table1Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("bench: unknown case %q", name)
}

// Row generates the full test set for one case (hierarchical 5x5 blocks, as
// in the paper's evaluation) and returns the test set with timing stats.
func Row(ctx context.Context, c Case) (*core.TestSet, error) {
	a, err := c.Build()
	if err != nil {
		return nil, err
	}
	if got := a.NumNormal(); got != c.PaperNV {
		return nil, fmt.Errorf("bench: %s reconstruction has nv=%d, paper has %d",
			c.Name, got, c.PaperNV)
	}
	return core.Generate(ctx, a, core.Config{Hierarchical: true})
}

// Table1 renders the measured-vs-paper comparison table.
func Table1(ctx context.Context) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %6s %6s | %5s %5s %5s %6s | %5s %5s %5s %6s | %10s\n",
		"Array", "nv", "Top",
		"np", "nc", "nl", "N",
		"np*", "nc*", "nl*", "N*", "T")
	fmt.Fprintln(&b, strings.Repeat("-", 92))
	for _, c := range Table1Cases() {
		ts, err := Row(ctx, c)
		if err != nil {
			return "", err
		}
		s := ts.Stats
		fmt.Fprintf(&b, "%-7s %6d %6s | %5d %5d %5d %6d | %5d %5d %5d %6d | %10v\n",
			c.Name, s.NV, c.Top,
			s.NP, s.NC, s.NL, s.N,
			c.PaperNP, c.PaperNC, c.PaperNL, c.PaperN,
			s.T.Round(time.Millisecond))
	}
	fmt.Fprintln(&b, "(*) columns are the paper's Table I values; measured layouts match nv exactly,")
	fmt.Fprintln(&b, "    channel/obstacle placement is reconstructed (see DESIGN.md).")
	return b.String(), nil
}

// BaselineVectors materializes the baseline test set: for every Normal
// valve one dedicated flow-path vector through it (stuck-at-0 test) and one
// dedicated cut vector containing it (stuck-at-1 test). 2*nv vectors — the
// "squared complexity" the paper compares against.
func BaselineVectors(a *grid.Array) ([]*sim.Vector, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cutThrough, err := cutset.ThroughBuilder(a)
	if err != nil {
		return nil, err
	}
	rt := flowpath.NewRouter(a)
	var out []*sim.Vector
	for _, v := range a.NormalValves() {
		if p := rt.ThroughAvoiding(v, nil); p != nil {
			out = append(out, p.Vector(a, fmt.Sprintf("base-open-%d", v)))
		}
		if c := cutThrough(v); c != nil {
			vec := c.Vector(a, fmt.Sprintf("base-closed-%d", v))
			out = append(out, vec)
		}
	}
	return out, nil
}

// CampaignSeries runs the Sec. IV experiment: for k = 1..maxFaults random
// faults, trials injections each, reporting detection per k. The vector set
// is compiled once and shared by all maxFaults campaigns, each of which
// shards its trials across all CPUs.
func CampaignSeries(ctx context.Context, ts *core.TestSet, trials, maxFaults int, seed int64) ([]sim.CampaignResult, error) {
	cv, err := ts.Compile()
	if err != nil {
		return nil, err
	}
	var out []sim.CampaignResult
	for k := 1; k <= maxFaults; k++ {
		res, err := cv.RunCampaign(ctx, sim.CampaignConfig{
			Trials: trials, NumFaults: k, Seed: seed + int64(k),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
