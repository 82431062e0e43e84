package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// randomModels builds the random 0-1 models of the worker-count contract:
// 25 models of 6-11 binaries with objective coefficients in [-5, 5] and
// 3-6 rows of mixed sense, drawn from seed 17.
func randomModels() []*Model {
	rng := rand.New(rand.NewSource(17))
	var models []*Model
	for trial := 0; trial < 25; trial++ {
		m := new(Model)
		n := 6 + rng.Intn(6)
		vars := make([]VarID, n)
		for j := 0; j < n; j++ {
			vars[j] = m.AddBinary(float64(rng.Intn(11)-5), "x")
		}
		rows := 3 + rng.Intn(4)
		for i := 0; i < rows; i++ {
			var idx []VarID
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, vars[j])
					coef = append(coef, float64(rng.Intn(5)-2))
				}
			}
			if len(idx) == 0 {
				continue
			}
			m.AddCons(idx, coef, lp.Sense(rng.Intn(3)), float64(rng.Intn(9)-3))
		}
		models = append(models, m)
	}
	return models
}

// knapsackModel is a knapsack of 12 identical items: a model with many
// equal-objective leaves, where incumbent ordering is most fragile.
func knapsackModel() *Model {
	m := new(Model)
	vars := make([]VarID, 12)
	coef := make([]float64, 12)
	for i := range vars {
		vars[i] = m.AddBinary(-3, "x")
		coef[i] = 2
	}
	m.AddCons(vars, coef, lp.LE, 11)
	return m
}

// TestWorkersBitIdentical is the determinism contract: for any worker
// count, a completed solve returns exactly the same solution, down to the
// last bit of every coordinate.
func TestWorkersBitIdentical(t *testing.T) {
	for trial, m := range randomModels() {
		base := m.Solve(context.Background(), Options{})
		for _, workers := range []int{2, 4, 7} {
			got := m.Solve(context.Background(), Options{Workers: workers})
			if got.Status != base.Status {
				t.Fatalf("trial %d workers %d: status %v vs %v", trial, workers, got.Status, base.Status)
			}
			if got.Obj != base.Obj {
				t.Fatalf("trial %d workers %d: obj %v vs %v", trial, workers, got.Obj, base.Obj)
			}
			for j := range base.X {
				if got.X[j] != base.X[j] {
					t.Fatalf("trial %d workers %d: X[%d]=%v vs %v", trial, workers, j, got.X[j], base.X[j])
				}
			}
		}
	}
}

// TestParallelMatchesSerialOnKnapsack exercises the pool on a model with
// many ties (identical items), where incumbent ordering is most fragile.
func TestParallelMatchesSerialOnKnapsack(t *testing.T) {
	m := knapsackModel()
	base := m.Solve(context.Background(), Options{})
	if base.Status != Optimal || !approx(base.Obj, -15) {
		t.Fatalf("serial: %v obj %v, want -15", base.Status, base.Obj)
	}
	for _, workers := range []int{2, 5, 16} {
		got := m.Solve(context.Background(), Options{Workers: workers})
		if got.Status != base.Status || got.Obj != base.Obj {
			t.Fatalf("workers %d: (%v, %v) vs (%v, %v)", workers, got.Status, got.Obj, base.Status, base.Obj)
		}
		for j := range base.X {
			if got.X[j] != base.X[j] {
				t.Fatalf("workers %d: X[%d] differs", workers, j)
			}
		}
	}
}

// TestWarmStartAcrossSolves reuses the root basis between same-shape models
// (the iterative set-cover pattern) and verifies it cannot change results.
func TestWarmStartAcrossSolves(t *testing.T) {
	build := func(obj []float64) *Model {
		var m Model
		vars := make([]VarID, len(obj))
		for j, o := range obj {
			vars[j] = m.AddBinary(o, "x")
		}
		m.AddCons(vars, []float64{2, 3, 4, 5}, lp.LE, 8)
		m.AddCons(vars, []float64{1, 1, 1, 1}, lp.GE, 1)
		return &m
	}
	first := build([]float64{-2, -3, -4, -5}).Solve(context.Background(), Options{})
	if first.Status != Optimal {
		t.Fatalf("first solve: %v", first.Status)
	}
	if first.WarmStart == nil {
		t.Fatal("no warm-start handle returned")
	}
	second := build([]float64{-5, -1, -1, -2})
	cold := second.Solve(context.Background(), Options{})
	warm := second.Solve(context.Background(), Options{WarmStart: first.WarmStart})
	if warm.Status != cold.Status || warm.Obj != cold.Obj {
		t.Fatalf("warm (%v, %v) vs cold (%v, %v)", warm.Status, warm.Obj, cold.Status, cold.Obj)
	}
	for j := range cold.X {
		if warm.X[j] != cold.X[j] {
			t.Fatalf("X[%d] differs under warm start", j)
		}
	}
	// A shape mismatch must be ignored, not crash or corrupt.
	var other Model
	other.AddBinary(-1, "y")
	sol := other.Solve(context.Background(), Options{WarmStart: first.WarmStart})
	if sol.Status != Optimal || !approx(sol.Obj, -1) {
		t.Fatalf("shape-mismatched warm start: %v obj %v", sol.Status, sol.Obj)
	}
}

// TestFixVarAndSetVarBounds cover the bounds API used by the model
// builders in place of singleton equality rows.
func TestFixVarAndSetVarBounds(t *testing.T) {
	var m Model
	x := m.AddBinary(-1, "x")
	y := m.AddBinary(-1, "y")
	m.AddCons([]VarID{x, y}, []float64{1, 1}, lp.LE, 1)
	m.FixVar(x, 1)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || !approx(s.X[x], 1) || !approx(s.X[y], 0) {
		t.Fatalf("fix: %v x=%v", s.Status, s.X)
	}
	m.SetVarBounds(x, 0, 1) // un-fix; optimum stays -1 but either var may carry it
	s2 := m.Solve(context.Background(), Options{})
	if s2.Status != Optimal || !approx(s2.Obj, -1) {
		t.Fatalf("unfix: %v obj %v", s2.Status, s2.Obj)
	}
	mustPanic(t, func() { m.SetVarBounds(x, 2, 1) })
}

// TestLPIterLimitNeverClaimsInfeasible: a node dropped on its LP iteration
// budget makes the search non-exhaustive — the solver must degrade to
// Feasible/Limit, not fabricate Infeasible (or Optimal) verdicts.
func TestLPIterLimitNeverClaimsInfeasible(t *testing.T) {
	var m Model
	x := m.AddBinary(-1, "x")
	y := m.AddBinary(-1, "y")
	m.AddCons([]VarID{x, y}, []float64{1, 1}, lp.LE, 1)
	m.AddCons([]VarID{x, y}, []float64{1, -1}, lp.GE, 0)
	s := m.Solve(context.Background(), Options{MaxLPIters: 1})
	if s.Status == Infeasible || s.Status == Optimal {
		t.Fatalf("starved solve claimed %v; want Feasible or Limit", s.Status)
	}
	full := m.Solve(context.Background(), Options{})
	if full.Status != Optimal || !approx(full.Obj, -1) {
		t.Fatalf("full solve: %v obj %v, want optimal -1", full.Status, full.Obj)
	}
}

// TestReducedCostTighteningStaysExact: dense objectives make reduced-cost
// fixing fire; the optimum must still match brute force.
func TestReducedCostTighteningStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		var m Model
		n := 5 + rng.Intn(4)
		vars := make([]VarID, n)
		w := make([]float64, n)
		for j := 0; j < n; j++ {
			vars[j] = m.AddBinary(float64(-1-rng.Intn(9)), "x")
			w[j] = float64(1 + rng.Intn(6))
		}
		m.AddCons(vars, w, lp.LE, float64(3+rng.Intn(12)))
		got := m.Solve(context.Background(), Options{})
		if got.Status != Optimal {
			t.Fatalf("trial %d: %v", trial, got.Status)
		}
		want := bruteForce01(&m)
		if math.Abs(got.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: solver %v, brute force %v", trial, got.Obj, want)
		}
	}
}
