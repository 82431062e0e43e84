// Command fpvatest generates a compact test set for an FPVA: flow-path
// vectors (stuck-at-0), cut-set vectors (stuck-at-1) and control-leakage
// vectors, in the hierarchical flow of the paper's evaluation. It is a thin
// shell over the public fpva package.
//
// Usage:
//
//	fpvatest -table1                  reproduce Table I (all five arrays)
//	fpvatest -case 20x20              one Table I array, stats + vectors
//	fpvatest -rows 8 -cols 8          a full custom array
//	fpvatest -in chip.fpva            an array in the text format
//	fpvatest -case 10x10 -o plan.json serialize the plan for fpvasim -plan
//	fpvatest -case 5x5 -dump          also print every vector's open valves
//	fpvatest -case 5x5 -verify        exhaustive 1- and 2-fault check
//	fpvatest -rows 4 -cols 4 -path-engine ilp-iterative -cut-engine ilp \
//	         -workers 8               the paper's exact ILP engines on a
//	                                  warm-started parallel branch-and-bound
//	fpvatest -daemon http://host:8471 -rows 4 -cols 4 -o plan.json
//	                                  generate on a remote fpvad (shared
//	                                  plan cache); -o writes the daemon's
//	                                  bytes verbatim
//	fpvatest -case 30x30 -timeout 30s abort (exit 2) past a deadline
//
// Exactly one of -table1, -case, -rows/-cols and -in must be given.
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
	"os"
	"os/signal"
	"time"

	"repro/cmd/internal/cli"
	"repro/fpva"
)

type options struct {
	table1    bool
	caseName  string
	rows      int
	cols      int
	inFile    string
	outFile   string
	direct    bool
	blockSize int
	dump      bool
	verify    bool
	workers   int
	pathEng   string
	cutEng    string
	progress  bool
	timeout   time.Duration
	daemon    string
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
		fmt.Fprintln(stderr, "fpvatest:", err)
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
	fs := flag.NewFlagSet("fpvatest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&opt.table1, "table1", false, "reproduce Table I across all benchmark arrays")
	fs.StringVar(&opt.caseName, "case", "", "one Table I array (5x5, 10x10, 15x15, 20x20, 30x30)")
	fs.IntVar(&opt.rows, "rows", 0, "custom full array rows")
	fs.IntVar(&opt.cols, "cols", 0, "custom full array columns")
	fs.StringVar(&opt.inFile, "in", "", "read an array in the text format")
	fs.StringVar(&opt.outFile, "o", "", "write the generated plan as JSON (for fpvasim -plan)")
	fs.BoolVar(&opt.direct, "direct", false, "disable the hierarchical 5x5 decomposition")
	fs.IntVar(&opt.blockSize, "block", 5, "hierarchical block edge length")
	fs.BoolVar(&opt.dump, "dump", false, "print each vector's open valves")
	fs.BoolVar(&opt.verify, "verify", false, "exhaustively verify the 1- and 2-fault guarantees")
	fs.IntVar(&opt.workers, "workers", 1, "branch-and-bound workers for the ILP engines (bit-identical results)")
	fs.StringVar(&opt.pathEng, "path-engine", "auto", "flow-path engine: auto, serpentine, ilp-iterative, ilp-monolithic")
	fs.StringVar(&opt.cutEng, "cut-engine", "auto", "cut-set engine: auto, dual, ilp")
	fs.BoolVar(&opt.progress, "progress", false, "report generation phases on stderr")
	fs.DurationVar(&opt.timeout, "timeout", 0, "abort after this duration (exit code 2)")
	fs.StringVar(&opt.daemon, "daemon", "", "generate on a remote fpvad at this base URL")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return opt, err
		}
		return opt, usagef("%v", err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fpvatest: unexpected argument %q\n", fs.Arg(0))
		return opt, usagef("unexpected argument %q", fs.Arg(0))
	}
	return opt, nil
}

// validateSelectors enforces that exactly one array source is chosen.
func validateSelectors(opt options) error {
	n := 0
	if opt.table1 {
		n++
	}
	if opt.caseName != "" {
		n++
	}
	if opt.rows != 0 || opt.cols != 0 {
		if opt.rows <= 0 || opt.cols <= 0 {
			return usagef("-rows and -cols must both be positive (got %d, %d)", opt.rows, opt.cols)
		}
		n++
	}
	if opt.inFile != "" {
		n++
	}
	switch n {
	case 0:
		return usagef("specify exactly one of -table1, -case, -rows/-cols, or -in (see -h)")
	case 1:
		return nil
	}
	return usagef("-table1, -case, -rows/-cols and -in are mutually exclusive; pick one")
}

func run(ctx context.Context, w io.Writer, opt options) error {
	if err := validateSelectors(opt); err != nil {
		return err
	}
	if opt.daemon != "" {
		if opt.table1 {
			return usagef("-table1 runs locally; it cannot be combined with -daemon")
		}
		return runRemote(ctx, w, opt)
	}
	if opt.table1 {
		if opt.outFile != "" {
			return usagef("-o needs a single array; it cannot be combined with -table1")
		}
		out, err := fpva.Table1(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	}
	a, err := loadArray(opt)
	if err != nil {
		return err
	}
	genOpts := []fpva.GenOption{
		fpva.WithBlockSize(opt.blockSize),
		fpva.WithSolverWorkers(opt.workers),
	}
	if opt.direct {
		genOpts = append(genOpts, fpva.WithDirectModel())
	}
	if opt.progress {
		genOpts = append(genOpts, fpva.WithProgress(func(e fpva.Event) {
			fmt.Fprintf(os.Stderr, "fpvatest: %v\n", e)
		}))
	}
	genOpts, err = appendEngines(genOpts, opt.pathEng, opt.cutEng)
	if err != nil {
		return err
	}
	plan, err := fpva.Generate(ctx, a, genOpts...)
	if err != nil {
		return err
	}
	reportPlan(w, plan)
	if opt.outFile != "" {
		f, err := os.Create(opt.outFile)
		if err != nil {
			return err
		}
		if err := fpva.EncodePlan(f, plan); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "plan written to %s\n", opt.outFile)
	}
	return finishReport(ctx, w, plan, opt)
}

// reportPlan prints the stats banner and coverage warnings for a plan.
func reportPlan(w io.Writer, plan *fpva.Plan) {
	s := plan.Stats()
	fmt.Fprintln(w, plan.Array())
	fmt.Fprintln(w, s)
	fmt.Fprintf(w, "baseline (one valve at a time) would need %d vectors\n",
		plan.Array().BaselineCount())
	if uncov := plan.UncoveredPath(); len(uncov) > 0 {
		fmt.Fprintf(w, "WARNING: stuck-at-0 untestable valves: %v\n", uncov)
	}
	if uncov := plan.UncoveredCut(); len(uncov) > 0 {
		fmt.Fprintf(w, "WARNING: stuck-at-1 untestable valves: %v\n", uncov)
	}
	if n := s.PathILPNonOptimal; n > 0 {
		fmt.Fprintf(w, "WARNING: %d flow-path ILP solve(s) stopped incomplete (node budget or LP iteration cap); paths accepted are feasible, not proven optimal\n", n)
	}
	if n := s.CutILPNonOptimal; n > 0 {
		fmt.Fprintf(w, "WARNING: %d cut-set ILP solve(s) stopped incomplete (node budget or LP iteration cap); cuts accepted are feasible, not proven optimal\n", n)
	}
}

// finishReport handles the -dump and -verify tails shared by local and
// remote runs.
func finishReport(ctx context.Context, w io.Writer, plan *fpva.Plan, opt options) error {
	if opt.dump {
		for _, vec := range plan.Vectors() {
			fmt.Fprintf(w, "%-10s (%s): open %v\n", vec.Name, vec.Kind, vec.Open)
		}
	}
	if opt.verify {
		singles, err := plan.VerifySingleFaults(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "single-fault check: %d escapes\n", len(singles))
		pairs, err := plan.VerifyDoubleFaults(ctx, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "double-fault check: %d escapes\n", len(pairs))
	}
	return nil
}

func loadArray(opt options) (*fpva.Array, error) {
	switch {
	case opt.caseName != "":
		return fpva.BenchmarkArray(opt.caseName)
	case opt.inFile != "":
		f, err := os.Open(opt.inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fpva.ParseArrayText(f)
	default:
		return fpva.NewArray(opt.rows, opt.cols)
	}
}

// appendEngines maps the -path-engine / -cut-engine flag values onto the
// generator options.
func appendEngines(opts []fpva.GenOption, pathEng, cutEng string) ([]fpva.GenOption, error) {
	pe, err := fpva.ParsePathEngine(pathEng)
	if err != nil {
		return nil, usagef("unknown -path-engine %q", pathEng)
	}
	ce, err := fpva.ParseCutEngine(cutEng)
	if err != nil {
		return nil, usagef("unknown -cut-engine %q", cutEng)
	}
	return append(opts, fpva.WithPathEngine(pe), fpva.WithCutEngine(ce)), nil
}
