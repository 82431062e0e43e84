// Command fpvasim reproduces the paper's Sec. IV fault-injection study: it
// takes a test plan — generated in-process or loaded from fpvatest -o
// output — injects k = 1..maxFaults random faults per trial, and reports
// the detection rate per k. It is a thin shell over the public fpva
// package.
//
// Usage:
//
//	fpvasim -case 10x10 -trials 10000             the paper's experiment
//	fpvasim -rows 8 -cols 8                       a full custom array
//	fpvasim -plan plan.json -trials 100000        replay a serialized plan
//	fpvasim -case 5x5 -trials 1000 -faults 3      shorter run
//	fpvasim -case 5x5 -leaks                      include control-leak faults
//	fpvasim -case 5x5 -baseline                   use the 2*nv baseline set
//	fpvasim -case 20x20 -timeout 1m               abort (exit 2) past a deadline
//	fpvasim -case 5x5 -diagnose                   closed-loop diagnosis study
//	fpvasim -case 10x10 -diagnose -diagnose-trials 50
//
// With -diagnose, instead of a detection campaign the tool injects each
// single stuck-at fault as a hidden defect, answers the diagnosis
// engine's adaptive (greedy) probes from the simulator, and reports
// probes-to-isolation statistics per fault kind. -diagnose-trials caps
// the study to a seeded sample of faults (0 = exhaustive); the run is
// deterministic for a fixed seed.
//
// Exactly one of -case, -rows/-cols and -plan must be given; -baseline
// requires in-process generation and is incompatible with -plan.
//
// Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors and
// deadline expiry (-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"repro/cmd/internal/cli"
	"repro/fpva"
)

type options struct {
	caseName   string
	rows       int
	cols       int
	planFile   string
	trials     int
	maxFaults  int
	seed       int64
	workers    int
	maxEscapes int
	leaks      bool
	baseline   bool
	progress   bool
	timeout    time.Duration
	diagnose   bool
	diagTrials int
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}
	if err := run(ctx, stdout, opt); err != nil {
		fmt.Fprintln(stderr, "fpvasim:", err)
		return exitCode(err)
	}
	return 0
}

// usagef / exitCode alias the repo-wide CLI exit-code contract
// (cmd/internal/cli): usage 2, deadline 2, runtime 1, success 0.
var (
	usagef   = cli.Usagef
	exitCode = cli.ExitCode
)

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("fpvasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.caseName, "case", "", "Table I array name (5x5, 10x10, 15x15, 20x20, 30x30)")
	fs.IntVar(&opt.rows, "rows", 0, "custom full array rows")
	fs.IntVar(&opt.cols, "cols", 0, "custom full array columns")
	fs.StringVar(&opt.planFile, "plan", "", "replay a plan serialized by fpvatest -o")
	fs.IntVar(&opt.trials, "trials", 10000, "injections per fault count")
	fs.IntVar(&opt.maxFaults, "faults", 5, "maximum number of simultaneous faults")
	fs.Int64Var(&opt.seed, "seed", 2017, "campaign RNG seed")
	fs.IntVar(&opt.workers, "workers", 0, "campaign worker goroutines (0 = all CPUs)")
	fs.IntVar(&opt.maxEscapes, "max-escapes", 0, "cap on recorded undetected fault sets (0 = default 16)")
	fs.BoolVar(&opt.leaks, "leaks", false, "also inject control-leakage faults")
	fs.BoolVar(&opt.baseline, "baseline", false, "evaluate the one-valve-at-a-time baseline instead")
	fs.BoolVar(&opt.progress, "progress", false, "report campaign trial progress on stderr")
	fs.DurationVar(&opt.timeout, "timeout", 0, "abort after this duration (exit code 2)")
	fs.BoolVar(&opt.diagnose, "diagnose", false, "run the closed-loop diagnosis study instead of a campaign")
	fs.IntVar(&opt.diagTrials, "diagnose-trials", 0, "sample this many hidden faults (0 = every single stuck-at fault)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return opt, err
		}
		return opt, usagef("%v", err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fpvasim: unexpected argument %q\n", fs.Arg(0))
		return opt, usagef("unexpected argument %q", fs.Arg(0))
	}
	return opt, nil
}

// validateSelectors enforces that exactly one plan source is chosen.
func validateSelectors(opt options) error {
	n := 0
	if opt.caseName != "" {
		n++
	}
	if opt.rows != 0 || opt.cols != 0 {
		if opt.rows <= 0 || opt.cols <= 0 {
			return usagef("-rows and -cols must both be positive (got %d, %d)", opt.rows, opt.cols)
		}
		n++
	}
	if opt.planFile != "" {
		if opt.baseline {
			return usagef("-baseline regenerates vectors and cannot be combined with -plan")
		}
		n++
	}
	switch n {
	case 0:
		return usagef("specify exactly one of -case, -rows/-cols, or -plan (see -h)")
	case 1:
		return nil
	}
	return usagef("-case, -rows/-cols and -plan are mutually exclusive; pick one")
}

func run(ctx context.Context, w io.Writer, opt options) error {
	if err := validateSelectors(opt); err != nil {
		return err
	}
	plan, label, err := loadPlan(ctx, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on %v: %d vectors\n", label, plan.Array(), plan.NumVectors())
	if opt.diagnose {
		return runDiagnose(ctx, w, opt, plan)
	}
	campOpts := []fpva.CampaignOption{
		fpva.WithTrials(opt.trials),
		fpva.WithCampaignWorkers(opt.workers),
		fpva.WithMaxEscapes(opt.maxEscapes),
	}
	if opt.leaks {
		campOpts = append(campOpts, fpva.WithLeakFaults())
	}
	if opt.progress {
		campOpts = append(campOpts, fpva.WithCampaignProgress(func(e fpva.Event) {
			fmt.Fprintf(os.Stderr, "fpvasim: %v\n", e)
		}))
	}
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s\n", "faults", "trials", "detected", "rate")
	for k := 1; k <= opt.maxFaults; k++ {
		res, err := plan.Campaign(ctx, append(campOpts,
			fpva.WithNumFaults(k), fpva.WithSeed(opt.seed+int64(k)))...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-10d %-10d %.4f\n", k, res.Trials, res.Detected, res.DetectionRate())
		for _, esc := range res.Escapes {
			fmt.Fprintf(w, "  escape: %v\n", esc)
		}
	}
	return nil
}

// diagState accumulates per-fault-kind closed-loop outcomes.
type diagState struct {
	trials    int
	isolated  int // sessions ending with exactly one signature class
	singleton int // ... whose class is the true fault alone
	probes    int
	maxProbes int
	maxClass  int
}

// runDiagnose is the -diagnose mode: inject each hidden single fault,
// answer the engine's adaptive probes from the simulator, and tabulate
// probes-to-isolation. Everything is deterministic for a fixed seed —
// fault order follows the array's valve order and sampling uses a seeded
// shuffle.
func runDiagnose(ctx context.Context, w io.Writer, opt options, plan *fpva.Plan) error {
	if opt.diagTrials < 0 {
		return usagef("-diagnose-trials must be >= 0")
	}
	a := plan.Array()
	sim, err := a.NewSimulator()
	if err != nil {
		return err
	}
	vecs, err := planVectors(a, plan)
	if err != nil {
		return err
	}
	kinds := []fpva.FaultKind{fpva.StuckAt0, fpva.StuckAt1}
	var hidden []fpva.Fault
	for _, kind := range kinds {
		for _, e := range a.Valves() {
			hidden = append(hidden, fpva.Fault{Kind: kind, A: e})
		}
	}
	if opt.diagTrials > 0 && opt.diagTrials < len(hidden) {
		rng := rand.New(rand.NewSource(opt.seed))
		rng.Shuffle(len(hidden), func(i, j int) { hidden[i], hidden[j] = hidden[j], hidden[i] })
		hidden = hidden[:opt.diagTrials]
	}
	var sessOpts []fpva.DiagnoseOption
	if opt.workers > 0 {
		sessOpts = append(sessOpts, fpva.WithDiagnoseWorkers(opt.workers))
	}
	// The header still names the planner, so recorded outputs stay
	// comparable with those of older builds.
	fmt.Fprintf(w, "diagnosis (greedy planner): %d hidden faults\n", len(hidden))
	stats := make(map[fpva.FaultKind]*diagState, len(kinds))
	for _, kind := range kinds {
		stats[kind] = &diagState{}
	}
	for _, h := range hidden {
		probes, classSize, amb, err := diagnoseOne(ctx, plan, sim, vecs, h, sessOpts)
		if err != nil {
			return fmt.Errorf("hidden %v: %w", h, err)
		}
		st := stats[h.Kind]
		st.trials++
		st.probes += probes
		st.maxProbes = max(st.maxProbes, probes)
		st.maxClass = max(st.maxClass, classSize)
		if classSize > 0 {
			st.isolated++
			if classSize == 1 {
				st.singleton++
			}
		}
		if opt.progress {
			fmt.Fprintf(os.Stderr, "fpvasim: %v isolated to %d candidate(s) in %d probe(s) %v\n", h, classSize, probes, amb)
		}
	}
	fmt.Fprintf(w, "%-12s %-8s %-10s %-10s %-10s %-10s %-9s\n",
		"kind", "faults", "isolated", "singleton", "avg-probe", "max-probe", "max-class")
	for _, kind := range kinds {
		st := stats[kind]
		if st.trials == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12v %-8d %-10d %-10d %-10.2f %-10d %-9d\n",
			kind, st.trials, st.isolated, st.singleton,
			float64(st.probes)/float64(st.trials), st.maxProbes, st.maxClass)
	}
	return nil
}

// diagnoseOne plays one closed loop: the hidden fault is injected in the
// simulator and the session's suggested probes are answered until it
// stops asking. It returns the probe count and the size of the surviving
// class (which must contain the hidden fault).
func diagnoseOne(ctx context.Context, plan *fpva.Plan, sim *fpva.Simulator, vecs []*fpva.Vector, h fpva.Fault, opts []fpva.DiagnoseOption) (probes, classSize int, amb [][]fpva.Fault, err error) {
	sess, err := plan.NewDiagnoseSession(ctx, opts...)
	if err != nil {
		return 0, 0, nil, err
	}
	injected := []fpva.Fault{h}
	for {
		v := sess.NextProbe()
		if v < 0 {
			break
		}
		r, err := sim.Readings(vecs[v], injected)
		if err != nil {
			return 0, 0, nil, err
		}
		if err := sess.Observe(fpva.Observation{Vector: v, Readings: r}); err != nil {
			return 0, 0, nil, err
		}
		if probes++; probes > len(vecs) {
			return 0, 0, nil, fmt.Errorf("session asked for more probes than plan vectors (%d)", len(vecs))
		}
	}
	d, err := sess.Diagnosis(ctx)
	if err != nil {
		return 0, 0, nil, err
	}
	if !d.Consistent {
		return 0, 0, nil, errors.New("observations inconsistent with the candidate universe")
	}
	if !d.Isolated {
		return 0, 0, nil, fmt.Errorf("not isolated after %d probes (%d classes survive)", probes, len(d.Classes))
	}
	found := false
	for _, fs := range d.Ambiguity {
		if len(fs) == 1 && fs[0] == h {
			found = true
			break
		}
	}
	if !found {
		return 0, 0, nil, errors.New("true fault eliminated from the ambiguity set")
	}
	return probes, len(d.Ambiguity), d.Ambiguity, nil
}

// planVectors materializes the plan's vectors as applicable Vector
// values, so the simulator can answer probes against them.
func planVectors(a *fpva.Array, plan *fpva.Plan) ([]*fpva.Vector, error) {
	infos := plan.Vectors()
	out := make([]*fpva.Vector, len(infos))
	for i, vi := range infos {
		v := a.NewVector(vi.Name)
		for _, e := range vi.Open {
			if err := v.SetOpen(e, true); err != nil {
				return nil, err
			}
		}
		out[i] = v
	}
	return out, nil
}

// loadPlan resolves the plan source: a serialized file, or in-process
// generation (proposed flow or baseline) for the selected array.
func loadPlan(ctx context.Context, opt options) (*fpva.Plan, string, error) {
	if opt.planFile != "" {
		f, err := os.Open(opt.planFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		plan, err := fpva.DecodePlan(f)
		if err != nil {
			return nil, "", err
		}
		return plan, "plan " + opt.planFile, nil
	}
	var a *fpva.Array
	var err error
	if opt.caseName != "" {
		a, err = fpva.BenchmarkArray(opt.caseName)
	} else {
		a, err = fpva.NewArray(opt.rows, opt.cols)
	}
	if err != nil {
		return nil, "", err
	}
	if opt.baseline {
		plan, err := fpva.BaselinePlan(a)
		return plan, "baseline", err
	}
	t0 := time.Now()
	plan, err := fpva.Generate(ctx, a)
	if err != nil {
		return nil, "", err
	}
	return plan, fmt.Sprintf("proposed (generated in %v)", time.Since(t0).Round(time.Millisecond)), nil
}
