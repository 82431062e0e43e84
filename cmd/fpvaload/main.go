package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setups is how many times an untraced run boots and warms a daemon;
// setup_s is their median, and the last one serves the window.
const setups = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	addr     string
	bin      string
	spans    string
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run that hangs is cut off rather than left running.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(3*opt.seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	res, err := benchmark(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fpvaload:", err)
		return 1
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintln(stderr, "fpvaload:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("fpvaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the request stream")
	fs.Float64Var(&opt.seconds, "seconds", 30, "length of the measured window, in seconds")
	fs.IntVar(&opt.trace, "trace", 0, "1 makes the traced pass and prints the per-layer metrics instead")
	fs.StringVar(&opt.addr, "addr", "", "drive the fpvad already serving this base URL, e.g. http://127.0.0.1:8471, instead of booting one")
	fs.StringVar(&opt.bin, "bin", "", "directory to build fpvad and fpvaworker into (default .bench_build/bin in the repository)")
	fs.StringVar(&opt.spans, "spans", "", "file the traced pass writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	var err error
	switch _, ok := findWorkload(opt.workload); {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case !ok:
		err = fmt.Errorf("-workload %q: want one of %s", opt.workload, strings.Join(names, ", "))
	case opt.seconds <= 0:
		err = errors.New("-seconds must be > 0")
	case opt.trace != 0 && opt.trace != 1:
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "fpvaload:", err)
	}
	return opt, err
}

// hostStamp records where and on what a run measured.
type hostStamp struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPU         string   `json:"cpu"`
	GoVersion   string   `json:"go"`
	Commit      string   `json:"commit"`
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Seconds     float64  `json:"seconds"`
	DaemonFlags []string `json:"daemon_flags"`

	root string
}

func newHostStamp(root string, opt options, w workload) hostStamp {
	s := hostStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds,
		root: root,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if opt.addr != "" {
		s.DaemonFlags = []string{"external daemon at " + opt.addr}
	} else {
		s.DaemonFlags = append([]string{"-workers", fmt.Sprint(daemonWorkers)}, w.flags...)
	}
	return s
}

func benchmark(ctx context.Context, opt options, out io.Writer) (result, error) {
	w, _ := findWorkload(opt.workload)
	root, err := findRoot()
	if err != nil {
		return result{}, err
	}
	binDir := opt.bin
	if binDir == "" {
		binDir = filepath.Join(root, ".bench_build", "bin")
	}
	bins, err := buildBinaries(ctx, root, binDir)
	if err != nil {
		return result{}, err
	}
	st, err := w.newStream(opt.seed)
	if err != nil {
		return result{}, fmt.Errorf("%s request stream: %w", w.name, err)
	}
	wu, err := newWarmUp(w, st)
	if err != nil {
		return result{}, fmt.Errorf("%s warm-up requests: %w", w.name, err)
	}
	stamp := newHostStamp(root, opt, w)
	b, err := json.Marshal(stamp)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "host %s\n", b)
	if opt.trace == 1 {
		return runTrace(ctx, opt, w, st, wu, bins, stamp, out)
	}
	return measure(ctx, opt, w, st, wu, bins, out)
}

// measure is the untraced run: set up, one closed-loop window, checks.
func measure(ctx context.Context, opt options, w workload, st stream, wu warmUp, bins binaries, out io.Writer) (result, error) {
	var s *session
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setUp(ctx, w, wu, bins, opt.addr); err != nil {
			return result{}, err
		}
		setupS = append(setupS, s.setup.Seconds())
		if opt.addr != "" {
			break
		}
	}
	defer s.close()
	chk := &checker{preload: s.preload}
	lr, err := runLoad(ctx, s.clients, st, time.Duration(opt.seconds*float64(time.Second)), chk, nil)
	if err != nil {
		return result{}, err
	}
	specs := endToEnd
	values := make(map[string]float64)
	if s.d != nil {
		if values["rss_peak_mb"], err = s.d.rssPeakMB(); err != nil {
			return result{}, fmt.Errorf("daemon peak RSS: %w", err)
		}
		values["setup_s"] = quantile(setupS, 0.5)
	} else {
		// An external daemon's set-up and memory are not ours to measure.
		specs = specs[1:4]
	}
	stats, err := getStats(ctx, s.clients[0])
	if err != nil {
		return result{}, err
	}
	if stats.WorkerRestarts != 0 {
		lr.fail(fmt.Errorf("%d solver worker restarts", stats.WorkerRestarts))
	}
	s.close()
	post := chk.post(ctx)
	all := lr.latencies("")
	// A job that fails a post-window check does not count as done.
	values["jobs_per_s"] = float64(max(len(lr.done)-post.failed, 0)) / lr.dur.Seconds()
	values["latency_p50_ms"] = quantile(all, 0.5)
	values["latency_p90_ms"] = quantile(all, 0.9)

	fmt.Fprintf(out, "%s seed %d: %v window, %d closed-loop clients, %d jobs done in the window\n",
		w.name, opt.seed, lr.dur, numClients, len(lr.done))
	if s.d != nil {
		fmt.Fprintf(out, "set-ups (s): %.4f\n", setupS)
	}
	printMetrics(out, specs, values)
	fmt.Fprintf(out, "%-10s %7s %10s %10s %10s\n", "kind", "jobs", "p50_ms", "p90_ms", "p99_ms")
	for _, kind := range []string{"generate", "campaign", "verify", "diagnose"} {
		if l := lr.latencies(kind); len(l) > 0 {
			fmt.Fprintf(out, "%-10s %7d %10.4f %10.4f %10.4f\n", kind, len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99))
		}
	}
	failed := lr.failed + post.failed
	printChecks(out, post, failed, lr.attempted, append(lr.errs, post.errs...))
	return newResult(specs, values, lr.attempted, failed)
}

func printMetrics(out io.Writer, specs []metric, values map[string]float64) {
	for _, m := range specs {
		fmt.Fprintf(out, "%-28s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
}

func printChecks(out io.Writer, post postResult, failed, attempted int, errs []error) {
	fmt.Fprintf(out, "error_rate %.4f (%d of %d jobs attempted); %d jobs re-run in-process, %d diagnoses decoded\n",
		ratio(failed, attempted), failed, attempted, post.reruns, post.diagnoses)
	for _, err := range errs {
		fmt.Fprintln(out, "  error:", err)
	}
}
