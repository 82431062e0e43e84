package repro

// One benchmark per evaluation artifact of the paper:
//
//	BenchmarkTable1_*         Table I   (test-vector generation per array)
//	BenchmarkFig8_*           Fig. 8    (direct vs hierarchical flow paths)
//	BenchmarkFig9_Paths20x20  Fig. 9    (paths over the irregular 20x20)
//	BenchmarkCampaign_*       Sec. IV   (random fault injection, 1..5 faults)
//	BenchmarkBaseline_*       Sec. IV   (one-valve-at-a-time comparison)
//	BenchmarkTwoFaultExhaustive  Sec. III guarantee (exhaustive pairs)
//	BenchmarkDiagnose_*       adaptive fault diagnosis (signature compile,
//	                          closed-loop probes-to-isolation, static plan)
//	BenchmarkAblation_*       engine ablations called out in DESIGN.md
//	BenchmarkEncodePlan_*     plan wire codec (the v1 JSON every solve,
//	BenchmarkDecodePlan_*     store read-back and plan upload crosses)
//	BenchmarkCompile_*        the compiled vector set campaign, verify and
//	                          diagnose jobs share (TestSet.Compile)
//	BenchmarkService_Verify_* a verify job through the service, warm entry
//	BenchmarkService_GenerateHit_*  a generate job served from the plan
//	                          cache: the wire bytes, or the decoded plan
//
// Vector counts and detection rates are attached as custom metrics so the
// numbers the paper reports appear directly in the benchmark output.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"repro/fpva"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cutset"
	"repro/internal/diagnose"
	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/sim"
)

func benchTable1(b *testing.B, name string) {
	c, err := bench.FindCase(name)
	if err != nil {
		b.Fatal(err)
	}
	var ts *core.TestSet
	for i := 0; i < b.N; i++ {
		ts, err = bench.Row(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ts.Stats.NP), "np")
	b.ReportMetric(float64(ts.Stats.NC), "nc")
	b.ReportMetric(float64(ts.Stats.NL), "nl")
	b.ReportMetric(float64(ts.Stats.N), "N")
	b.ReportMetric(float64(c.PaperN), "N_paper")
}

func BenchmarkTable1_5x5(b *testing.B)   { benchTable1(b, "5x5") }
func BenchmarkTable1_10x10(b *testing.B) { benchTable1(b, "10x10") }
func BenchmarkTable1_15x15(b *testing.B) { benchTable1(b, "15x15") }
func BenchmarkTable1_20x20(b *testing.B) { benchTable1(b, "20x20") }
func BenchmarkTable1_30x30(b *testing.B) { benchTable1(b, "30x30") }

func benchFig8(b *testing.B, stripR, stripC int, paperPaths float64) {
	a := grid.MustNewStandard(10, 10)
	var res *flowpath.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = flowpath.Generate(context.Background(), a, flowpath.Options{StripRows: stripR, StripCols: stripC})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Paths)), "paths")
	b.ReportMetric(paperPaths, "paths_paper")
}

// Fig. 8(a): the direct model on a full 10x10 (paper: 2 paths).
func BenchmarkFig8_Direct(b *testing.B) { benchFig8(b, 0, 0, 2) }

// Fig. 8(b): the hierarchical model with 5x5 blocks (paper: 4 paths).
func BenchmarkFig8_Hierarchical(b *testing.B) { benchFig8(b, 5, 5, 4) }

// Fig. 9: flow paths over the 20x20 array with three channels and two
// obstacles (paper: 16 paths over 744 valves).
func BenchmarkFig9_Paths20x20(b *testing.B) {
	c, err := bench.FindCase("20x20")
	if err != nil {
		b.Fatal(err)
	}
	a, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	var res *flowpath.Result
	for i := 0; i < b.N; i++ {
		res, err = flowpath.Generate(context.Background(), a, flowpath.Options{StripRows: 5, StripCols: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Paths)), "paths")
	b.ReportMetric(16, "paths_paper")
	b.ReportMetric(float64(a.NumNormal()), "valves")
}

func benchCampaign(b *testing.B, faults, workers int) {
	c, err := bench.FindCase("5x5")
	if err != nil {
		b.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.MustNew(ts.Array)
	vecs := ts.AllVectors()
	var res sim.CampaignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = s.Compile(vecs).RunCampaign(context.Background(), sim.CampaignConfig{
			Trials: 10000, NumFaults: faults, Seed: int64(faults), Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.DetectionRate(), "detection_rate")
	b.ReportMetric(float64(res.Floods), "floods")
}

// Sec. IV fault-injection study: 10 000 random injections per fault count
// (paper: all detected, for every k in 1..5). The base variants run
// single-worker; the _Parallel variants shard trials across all CPUs.
func BenchmarkCampaign_1Fault(b *testing.B)  { benchCampaign(b, 1, 1) }
func BenchmarkCampaign_2Faults(b *testing.B) { benchCampaign(b, 2, 1) }
func BenchmarkCampaign_3Faults(b *testing.B) { benchCampaign(b, 3, 1) }
func BenchmarkCampaign_4Faults(b *testing.B) { benchCampaign(b, 4, 1) }
func BenchmarkCampaign_5Faults(b *testing.B) { benchCampaign(b, 5, 1) }

func BenchmarkCampaign_1Fault_Parallel(b *testing.B)  { benchCampaign(b, 1, runtime.NumCPU()) }
func BenchmarkCampaign_2Faults_Parallel(b *testing.B) { benchCampaign(b, 2, runtime.NumCPU()) }
func BenchmarkCampaign_3Faults_Parallel(b *testing.B) { benchCampaign(b, 3, runtime.NumCPU()) }
func BenchmarkCampaign_4Faults_Parallel(b *testing.B) { benchCampaign(b, 4, runtime.NumCPU()) }
func BenchmarkCampaign_5Faults_Parallel(b *testing.B) { benchCampaign(b, 5, runtime.NumCPU()) }

// Sec. III single-fault guarantee sweep: every stuck-at fault on every
// Normal valve of the 5x5 through the word-parallel DetectsBatch.
func BenchmarkVerifySingleFaults(b *testing.B) {
	c, err := bench.FindCase("5x5")
	if err != nil {
		b.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	var escapes []sim.Fault
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The compile stays inside the timed loop, so the row stays
		// comparable across recordings.
		cv, err := ts.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if escapes, err = core.VerifySingleFaults(context.Background(), cv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(escapes)), "escaped")
}

// The compiled fast path: reuse one CompiledVectors across campaigns, as
// CampaignSeries and fpvasim do — compile cost amortized away entirely.
func BenchmarkCampaign_5Faults_Compiled(b *testing.B) {
	c, err := bench.FindCase("5x5")
	if err != nil {
		b.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	cv := sim.MustNew(ts.Array).Compile(ts.AllVectors())
	var res sim.CampaignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = cv.RunCampaign(context.Background(), sim.CampaignConfig{Trials: 10000, NumFaults: 5, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.DetectionRate(), "detection_rate")
	b.ReportMetric(float64(res.Floods), "floods")
}

func benchBaseline(b *testing.B, name string) {
	c, err := bench.FindCase(name)
	if err != nil {
		b.Fatal(err)
	}
	a, err := c.Build()
	if err != nil {
		b.Fatal(err)
	}
	var vecs []*sim.Vector
	for i := 0; i < b.N; i++ {
		vecs, err = bench.BaselineVectors(a)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(vecs)), "vectors")
	b.ReportMetric(float64(2*a.NumNormal()), "vectors_2nv")
}

// Sec. IV baseline: one valve switched at a time, 2*nv vectors.
func BenchmarkBaseline_5x5(b *testing.B)   { benchBaseline(b, "5x5") }
func BenchmarkBaseline_10x10(b *testing.B) { benchBaseline(b, "10x10") }

// Sec. III guarantee: exhaustive detection of every stuck-at fault pair on
// a 4x4 array (paper: any two faults are guaranteed detected).
func BenchmarkTwoFaultExhaustive(b *testing.B) {
	a := grid.MustNewStandard(4, 4)
	ts, err := core.Generate(context.Background(), a, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var escapes [][2]sim.Fault
	for i := 0; i < b.N; i++ {
		cv, err := ts.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if escapes, err = core.VerifyDoubleFaults(context.Background(), cv, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(escapes)), "escaped_pairs")
}

// Adaptive diagnosis (DESIGN.md "Diagnosis architecture"): the signature
// table compile, and the closed loop — every single stuck-at fault played
// as the hidden defect, probes answered from the table itself.
func benchDiagnoseSetup(b *testing.B, name string) (*core.TestSet, *sim.CompiledVectors, diagnose.Options) {
	b.Helper()
	c, err := bench.FindCase(name)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	cv, err := ts.Compile()
	if err != nil {
		b.Fatal(err)
	}
	opt := diagnose.Options{Workers: 1}
	for _, lp := range ts.LeakPairs {
		opt.LeakPairs = append(opt.LeakPairs, [2]grid.ValveID{lp[0], lp[1]})
	}
	return ts, cv, opt
}

func benchDiagnoseCompile(b *testing.B, name string) {
	_, cv, opt := benchDiagnoseSetup(b, name)
	var sg *diagnose.Signatures
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err = diagnose.Compile(context.Background(), cv, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sg.NumCandidates()), "candidates")
}

func BenchmarkDiagnose_Compile_5x5(b *testing.B)   { benchDiagnoseCompile(b, "5x5") }
func BenchmarkDiagnose_Compile_10x10(b *testing.B) { benchDiagnoseCompile(b, "10x10") }

func benchDiagnoseClosedLoop(b *testing.B, name string) {
	ts, cv, opt := benchDiagnoseSetup(b, name)
	sg, err := diagnose.Compile(context.Background(), cv, opt)
	if err != nil {
		b.Fatal(err)
	}
	nSingles := len(sim.AllSingleFaults(ts.Array))
	readings := make([]bool, sg.Sinks())
	totalProbes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalProbes = 0
		// Candidate indices 1..nSingles are exactly the single stuck-at
		// faults; the table itself answers the probes.
		for c := 1; c <= nSingles; c++ {
			sess := diagnose.NewSession(sg)
			for {
				v := sess.NextProbe()
				if v < 0 {
					break
				}
				for j := range readings {
					readings[j] = sg.Expected(c, v, j)
				}
				if err := sess.Observe(v, readings); err != nil {
					b.Fatal(err)
				}
				totalProbes++
			}
			if !sess.Done() {
				b.Fatalf("candidate %d not isolated", c)
			}
		}
	}
	b.ReportMetric(float64(totalProbes)/float64(nSingles), "probes/fault")
}

func BenchmarkDiagnose_ClosedLoop_5x5(b *testing.B)   { benchDiagnoseClosedLoop(b, "5x5") }
func BenchmarkDiagnose_ClosedLoop_10x10(b *testing.B) { benchDiagnoseClosedLoop(b, "10x10") }

// benchDiagnosePlanProbes times the static probe plan of a one-shot
// diagnosis, as fpvad serves it: three observations of a hidden single
// stuck-at fault (read off the table, on vectors spread over the plan),
// then a plan with no budget.
func benchDiagnosePlanProbes(b *testing.B, name string) {
	ts, cv, opt := benchDiagnoseSetup(b, name)
	sg, err := diagnose.Compile(context.Background(), cv, opt)
	if err != nil {
		b.Fatal(err)
	}
	hidden := 1 + len(sim.AllSingleFaults(ts.Array))/2
	sess := diagnose.NewSession(sg)
	readings := make([]bool, sg.Sinks())
	for _, v := range []int{0, sg.Vectors() / 3, 2 * sg.Vectors() / 3} {
		for j := range readings {
			readings[j] = sg.Expected(hidden, v, j)
		}
		if err := sess.Observe(v, readings); err != nil {
			b.Fatal(err)
		}
	}
	var steps []diagnose.ProbeStep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if steps, err = sess.PlanProbes(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(steps)), "steps")
	b.ReportMetric(float64(sess.AliveCount()), "alive")
}

func BenchmarkDiagnose_PlanProbes_10x10(b *testing.B) { benchDiagnosePlanProbes(b, "10x10") }
func BenchmarkDiagnose_PlanProbes_15x15(b *testing.B) { benchDiagnosePlanProbes(b, "15x15") }

// Ablation: the serpentine engine versus the paper's iterative ILP model on
// the same 4x4 array — same coverage, different path counts and runtime
// (the ILP is exact but orders of magnitude slower, which is the paper's
// motivation for the hierarchical decomposition).
func BenchmarkAblation_PathSerpentine(b *testing.B) {
	a := grid.MustNewStandard(4, 4)
	var res *flowpath.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = flowpath.Generate(context.Background(), a, flowpath.Options{Engine: flowpath.EngineSerpentine})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Paths)), "paths")
}

func BenchmarkAblation_PathILPIterative(b *testing.B) {
	benchPathILPIterative(b, 1)
}

// The warm-started branch-and-bound runs a worker pool; the returned
// solution (status, objective, vector) is bit-identical to the serial run
// for any worker count — only node accounting is schedule-dependent. The
// pool is pinned at 4 workers so the recorded speedups compare across
// machines.
func BenchmarkAblation_PathILPIterative_Parallel(b *testing.B) {
	benchPathILPIterative(b, 4)
}

func benchPathILPIterative(b *testing.B, workers int) {
	a := grid.MustNewStandard(4, 4)
	var res *flowpath.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = flowpath.Generate(context.Background(), a, flowpath.Options{
			Engine: flowpath.EngineILPIterative,
			ILP:    ilp.Options{Workers: workers},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Paths)), "paths")
	b.ReportMetric(float64(res.ILP.Nodes), "bb_nodes")
}

// Ablation: the paper's monolithic model (7)-(8) — all path blocks in one
// ILP — on a 3x3 array.
func BenchmarkAblation_PathILPMonolithic(b *testing.B) {
	a := grid.MustNewStandard(3, 3)
	var res *flowpath.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = flowpath.Generate(context.Background(), a, flowpath.Options{Engine: flowpath.EngineILPMonolithic})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Paths)), "paths")
	b.ReportMetric(float64(res.ILP.Nodes), "bb_nodes")
}

// Ablation: cut-set generation via the paper's complementary ILP over the
// dual graph (constraint (9) as model rows), one warm-started solve per
// target valve. The _Parallel variant runs the branch-and-bound on four
// workers; the cuts are bit-identical to the serial run.
func BenchmarkAblation_CutILP(b *testing.B) { benchCutILP(b, 1) }

func BenchmarkAblation_CutILP_Parallel(b *testing.B) { benchCutILP(b, 4) }

func benchCutILP(b *testing.B, workers int) {
	a := grid.MustNewStandard(5, 5)
	var res *cutset.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = cutset.Generate(context.Background(), a, cutset.Options{
			Engine: cutset.EngineILP,
			ILP:    ilp.Options{Workers: workers},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Cuts)), "cuts")
	b.ReportMetric(float64(res.ILP.Nodes), "bb_nodes")
}

// Ablation: cut generation with and without the constraint-(9) repair.
func BenchmarkAblation_CutRepairOn(b *testing.B) {
	benchCutRepair(b, false)
}

func BenchmarkAblation_CutRepairOff(b *testing.B) {
	benchCutRepair(b, true)
}

func benchCutRepair(b *testing.B, noRepair bool) {
	a := grid.MustNewStandard(8, 8)
	var res *cutset.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = cutset.Generate(context.Background(), a, cutset.Options{NoRepair: noRepair})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Cuts)), "cuts")
}

// planWire generates the Table I plan for name and returns it with its v1
// wire bytes.
func planWire(b *testing.B, name string) (*fpva.Plan, []byte) {
	a, err := fpva.BenchmarkArray(name)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fpva.Generate(context.Background(), a)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fpva.EncodePlan(&buf, plan); err != nil {
		b.Fatal(err)
	}
	return plan, buf.Bytes()
}

func benchEncodePlan(b *testing.B, name string) {
	plan, wire := planWire(b, name)
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fpva.EncodePlan(io.Discard, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecodePlan times DecodePlan on the Table I plan for name, as
// EncodePlan writes it or, compact, in the json.Compact form test-floor
// uploads arrive in.
func benchDecodePlan(b *testing.B, name string, compact bool) {
	_, wire := planWire(b, name)
	if compact {
		var buf bytes.Buffer
		if err := json.Compact(&buf, wire); err != nil {
			b.Fatal(err)
		}
		wire = buf.Bytes()
	}
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpva.DecodePlan(bytes.NewReader(wire)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompile times TestSet.Compile on a Table I plan: the fault-free
// state, golden readings and single-fault tables of every vector, which
// the service builds once per plan content and shares among campaign,
// verify and diagnose jobs.
func benchCompile(b *testing.B, name string) {
	c, err := bench.FindCase(name)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := bench.Row(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile_10x10(b *testing.B) { benchCompile(b, "10x10") }
func BenchmarkCompile_15x15(b *testing.B) { benchCompile(b, "15x15") }

// BenchmarkService_Verify_15x15 times a test-floor verify job as fpvad
// runs it: decode a fresh copy of the uploaded plan, SubmitVerify with
// 2,000 pairs, Wait. The service's compiled entry for the plan is warm,
// so both sweeps run without a compile.
func BenchmarkService_Verify_15x15(b *testing.B) {
	_, wire := planWire(b, "15x15")
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	ctx := context.Background()
	verify := func() {
		p, err := fpva.DecodePlan(bytes.NewReader(wire))
		if err != nil {
			b.Fatal(err)
		}
		j, err := svc.SubmitVerify(ctx, p, 2000)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		svc.Forget(j.ID())
	}
	verify() // warm the compiled entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verify()
	}
	b.StopTimer()
	if st := svc.Stats(); st.CompileMisses != 1 {
		b.Fatalf("%d compiles, want the warm-up's 1", st.CompileMisses)
	}
}

// BenchmarkService_GenerateHit_15x15 times a generate job that the plan
// cache serves, on the 15x15 Table I array: submit, Wait, fetch, Forget.
// PlanBytes fetches the cached wire bytes as they are, as fpvad's /result
// does; Plan decodes them onto the caller's array, as a library caller
// of fpva.Generate pays on every hit.
func BenchmarkService_GenerateHit_15x15(b *testing.B) {
	a, err := fpva.BenchmarkArray("15x15")
	if err != nil {
		b.Fatal(err)
	}
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	ctx := context.Background()
	generate := func(fetch func(*fpva.Job) error) {
		j, err := svc.SubmitGenerate(ctx, a)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if err := fetch(j); err != nil {
			b.Fatal(err)
		}
		svc.Forget(j.ID())
	}
	planBytes := func(j *fpva.Job) error { _, err := j.PlanBytes(); return err }
	generate(planBytes) // the solve that fills the cache
	for _, bc := range []struct {
		name  string
		fetch func(*fpva.Job) error
	}{
		{"PlanBytes", planBytes},
		{"Plan", func(j *fpva.Job) error { _, err := j.Plan(); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generate(bc.fetch)
			}
		})
	}
	if st := svc.Stats(); st.Solves != 1 {
		b.Fatalf("%d solves, want the warm-up's 1", st.Solves)
	}
}

// Plan wire codec on the 10x10 (about 70 KB) and 15x15 (about 230 KB)
// Table I plans; _Compact decodes the 15x15 plan without the indentation.
func BenchmarkEncodePlan_10x10(b *testing.B)         { benchEncodePlan(b, "10x10") }
func BenchmarkEncodePlan_15x15(b *testing.B)         { benchEncodePlan(b, "15x15") }
func BenchmarkDecodePlan_10x10(b *testing.B)         { benchDecodePlan(b, "10x10", false) }
func BenchmarkDecodePlan_15x15(b *testing.B)         { benchDecodePlan(b, "15x15", false) }
func BenchmarkDecodePlan_15x15_Compact(b *testing.B) { benchDecodePlan(b, "15x15", true) }
