package main

// Layer probes of the traced pass: each times calls into one layer's
// public functions, from outside, on the workload's own arrays and plans.

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/fpva"
)

// phaseClock timestamps a generation's phase events (fpva.WithProgress),
// which is how the core layer is timed from outside.
type phaseClock struct {
	mu    sync.Mutex
	marks []phaseMark
}

type phaseMark struct {
	e  fpva.Event
	at time.Time
}

func (c *phaseClock) option() fpva.GenOption {
	return fpva.WithProgress(func(e fpva.Event) {
		c.mu.Lock()
		c.marks = append(c.marks, phaseMark{e, time.Now()})
		c.mu.Unlock()
	})
}

// phases pairs each phase's start and finish.
func (c *phaseClock) phases() map[fpva.Phase][2]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[fpva.Phase][2]time.Time)
	for _, m := range c.marks {
		t := out[m.e.Phase]
		switch m.e.Kind {
		case fpva.PhaseStarted:
			t[0] = m.at
		case fpva.PhaseFinished:
			t[1] = m.at
		}
		out[m.e.Phase] = t
	}
	return out
}

// corePhases names the core layer's phases in pipeline order.
var corePhases = []struct {
	phase fpva.Phase
	name  string
}{
	{fpva.PhaseFlowPaths, "core.flow_paths"},
	{fpva.PhaseCutSets, "core.cut_sets"},
	{fpva.PhaseLeakage, "core.leakage"},
}

// samples collects per-metric observations in milliseconds or counts.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addSince(name string, t0 time.Time) { s.add(name, ms(time.Since(t0))) }

// generation is one array and the generate options it is solved with.
type generation struct {
	array *fpva.Array
	opts  []fpva.GenOption
}

func waitPlan(ctx context.Context, job *fpva.Job) (*fpva.Plan, error) {
	if err := job.Wait(ctx); err != nil {
		return nil, err
	}
	return job.Plan()
}

// probeService times the four paths of a generate job through a Service
// over a fresh cache directory: a miss; a coalesced follower, the second
// of two concurrent identical submits; a memory hit; and a store
// read-back by a new service over the same directory. The misses also
// time the core phases.
func probeService(ctx context.Context, gens []generation, out samples) error {
	dir, err := os.MkdirTemp("", "fpvaload-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := probeSolves(ctx, dir, gens, out); err != nil {
		return err
	}
	svc := fpva.NewService(fpva.WithServiceWorkers(daemonWorkers), fpva.WithCacheDir(dir))
	defer svc.Close()
	for _, g := range gens {
		t0 := time.Now()
		job, err := svc.SubmitGenerate(ctx, g.array, g.opts...)
		if err == nil {
			err = job.Wait(ctx)
		}
		if err != nil {
			return err
		}
		out.addSince("service.readback_ms", t0)
	}
	return nil
}

// probeSolves times the miss, follower and hit paths on a service that
// writes its plans to dir.
func probeSolves(ctx context.Context, dir string, gens []generation, out samples) error {
	svc := fpva.NewService(fpva.WithServiceWorkers(daemonWorkers), fpva.WithCacheDir(dir))
	defer svc.Close()
	for _, g := range gens {
		var clock phaseClock
		t0 := time.Now()
		leader, err := svc.SubmitGenerate(ctx, g.array, append(append([]fpva.GenOption(nil), g.opts...), clock.option())...)
		if err != nil {
			return err
		}
		before := svc.Stats().CacheCoalesced
		t1 := time.Now()
		follower, err := svc.SubmitGenerate(ctx, g.array, g.opts...)
		if err != nil {
			return err
		}
		plan, err := waitPlan(ctx, leader)
		if err != nil {
			return err
		}
		out.addSince("service.miss_ms", t0)
		if err := follower.Wait(ctx); err != nil {
			return err
		}
		if svc.Stats().CacheCoalesced > before {
			out.addSince("service.follower_ms", t1)
		}
		out.add("core.vectors_per_plan", float64(plan.NumVectors()))
		ph := clock.phases()
		for _, p := range corePhases {
			if t := ph[p.phase]; !t[0].IsZero() && !t[1].IsZero() {
				out.add(p.name+"_ms", ms(t[1].Sub(t[0])))
			}
		}
		t2 := time.Now()
		hit, err := svc.SubmitGenerate(ctx, g.array, g.opts...)
		if err == nil {
			err = hit.Wait(ctx)
		}
		if err != nil {
			return err
		}
		out.addSince("service.hit_ms", t2)
	}
	return nil
}

// codecSample is one array and one plan in the v1 wire format.
type codecSample struct{ array, plan []byte }

// probeCodec times decoding each array and plan, and re-encoding the
// decoded plan.
func probeCodec(ss []codecSample, out samples) error {
	for _, s := range ss {
		t0 := time.Now()
		if _, err := fpva.DecodeArray(bytes.NewReader(s.array)); err != nil {
			return err
		}
		out.addSince("codec.decode_array_ms", t0)
		t1 := time.Now()
		plan, err := fpva.DecodePlan(bytes.NewReader(s.plan))
		if err != nil {
			return err
		}
		out.addSince("codec.decode_plan_ms", t1)
		var buf bytes.Buffer
		t2 := time.Now()
		if err := fpva.EncodePlan(&buf, plan); err != nil {
			return err
		}
		out.addSince("codec.encode_plan_ms", t2)
	}
	return nil
}

// probeExecutor solves the exact-ilp variants with the cache off, once
// in-process and once in a worker subprocess, and reads the ILP counts
// off the plans. It returns the worker pool's restarts, which must be 0.
func probeExecutor(ctx context.Context, ilp *ilpStream, worker string, out samples) (int, error) {
	inproc := fpva.NewService(fpva.WithServiceWorkers(1), fpva.WithCacheBytes(0))
	defer inproc.Close()
	sub := fpva.NewService(fpva.WithServiceWorkers(1), fpva.WithCacheBytes(0),
		fpva.WithSolverExecutor(fpva.ExecSubprocess), fpva.WithWorkerCommand(worker), fpva.WithSolverPoolSize(1))
	defer sub.Close()
	opts := ilpGenOptions()
	solve := func(svc *fpva.Service, a *fpva.Array) (*fpva.Plan, error) {
		job, err := svc.SubmitGenerate(ctx, a, opts...)
		if err != nil {
			return nil, err
		}
		return waitPlan(ctx, job)
	}
	// The pool spawns its worker on first use; spawning is set-up.
	if _, err := solve(sub, ilp.arrays[0]); err != nil {
		return 0, err
	}
	var inMS, subMS []float64
	for _, a := range ilp.arrays {
		t0 := time.Now()
		plan, err := solve(inproc, a)
		if err != nil {
			return 0, err
		}
		inMS = append(inMS, ms(time.Since(t0)))
		st := plan.Stats()
		out.add("ilp.solves_per_plan", float64(st.ILPSolves))
		out.add("ilp.nodes_per_plan", float64(st.ILPNodes))
		t1 := time.Now()
		if _, err := solve(sub, a); err != nil {
			return 0, err
		}
		subMS = append(subMS, ms(time.Since(t1)))
	}
	out["executor.inprocess_ms"] = inMS
	out["executor.subprocess_ms"] = subMS
	out.add("executor.ipc_overhead_ms", mean(subMS)-mean(inMS))
	st := sub.Stats()
	out.add("workerpool.spawns", float64(st.WorkerSpawns))
	return st.WorkerRestarts, nil
}

// probeSim runs the paper's Sec. IV campaign (10000 trials, k = 1..5
// faults) and both verifications on each plan, single-threaded.
func probeSim(ctx context.Context, plans []floorPlan, rng *rand.Rand, out samples) error {
	names := []string{"", "sim.campaign_k1_ms", "sim.campaign_k2_ms", "sim.campaign_k3_ms", "sim.campaign_k4_ms", "sim.campaign_k5_ms"}
	for _, fp := range plans {
		for k := 1; k <= floorMaxK; k++ {
			t0 := time.Now()
			res, err := fp.plan.Campaign(ctx, fpva.WithTrials(floorTrials), fpva.WithNumFaults(k),
				fpva.WithSeed(1+rng.Int64N(1<<62)), fpva.WithCampaignWorkers(1))
			if err != nil {
				return err
			}
			out.addSince(names[k], t0)
			out.add("sim.sims_per_campaign", float64(res.Sims))
		}
		t0 := time.Now()
		if _, err := fp.plan.VerifySingleFaults(ctx); err != nil {
			return err
		}
		out.addSince("sim.verify_single_ms", t0)
		t1 := time.Now()
		if _, err := fp.plan.VerifyDoubleFaults(ctx, floorMaxPairs); err != nil {
			return err
		}
		out.addSince("sim.verify_double_ms", t1)
	}
	return nil
}

// probeDiagnose opens sessions on freshly decoded plans (no memoized
// signature table) and times the three stages of a diagnosis: compiling
// the signatures, narrowing by the observations, planning the probes.
func probeDiagnose(ctx context.Context, plans []floorPlan, rng *rand.Rand, out samples) error {
	for _, fp := range plans {
		for round := 0; round < 2; round++ {
			fresh, err := newFloorPlan(fp.name, fp.wire)
			if err != nil {
				return err
			}
			obs, err := fresh.observe(rng, fresh.fault(rng.IntN(fresh.numFaults())), floorObserved)
			if err != nil {
				return err
			}
			t0 := time.Now()
			sess, err := fresh.plan.NewDiagnoseSession(ctx, fpva.WithDiagnoseWorkers(1))
			if err != nil {
				return err
			}
			out.addSince("diagnose.compile_ms", t0)
			t1 := time.Now()
			for _, o := range obs {
				if err := sess.Observe(fpva.Observation{Vector: o.Vector, Readings: o.Readings}); err != nil {
					return err
				}
			}
			out.addSince("diagnose.narrow_ms", t1)
			t2 := time.Now()
			if _, err := sess.Diagnosis(ctx); err != nil {
				return err
			}
			out.addSince("diagnose.plan_ms", t2)
		}
	}
	return nil
}
