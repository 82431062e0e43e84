package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binary.
	// Optimal: a + c (weight 5, value 17)? b + c = 6 weight, value 20. Yes 20.
	var m Model
	a := m.AddBinary(-10, "a")
	b := m.AddBinary(-13, "b")
	c := m.AddBinary(-7, "c")
	m.AddCons([]VarID{a, b, c}, []float64{3, 4, 2}, lp.LE, 6)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.Obj, -20) {
		t.Errorf("obj %v, want -20", s.Obj)
	}
	if !m.feasible(s.X) {
		t.Errorf("optimum %v violates the model", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x  s.t. 2x >= 5, x integer  ->  x = 3 (LP gives 2.5).
	var m Model
	x := m.AddVar(0, Inf, 1, true, "x")
	m.AddCons([]VarID{x}, []float64{2}, lp.GE, 5)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || !approx(s.X[0], 3) {
		t.Fatalf("status %v x %v", s.Status, s.X)
	}
}

func TestMixedInteger(t *testing.T) {
	// min -y - 2x  s.t. x + y <= 3.5, x integer, y continuous <= 2.
	// x=3 forces y<=0.5: obj -6.5; x=2,y=1.5? wait y<=2: x=1,y=2->-4; x=2,y=1.5->-5.5; x=3,y=0.5->-6.5. Optimal -6.5.
	var m Model
	x := m.AddVar(0, Inf, -2, true, "x")
	y := m.AddVar(0, 2, -1, false, "y")
	m.AddCons([]VarID{x, y}, []float64{1, 1}, lp.LE, 3.5)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || !approx(s.Obj, -6.5) {
		t.Fatalf("status %v obj %v", s.Status, s.Obj)
	}
	if !approx(s.X[0], 3) {
		t.Errorf("x=%v", s.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6, x integer: LP feasible, ILP infeasible.
	var m Model
	x := m.AddVar(0, 1, 0, true, "x")
	m.AddCons([]VarID{x}, []float64{1}, lp.GE, 0.4)
	m.AddCons([]VarID{x}, []float64{1}, lp.LE, 0.6)
	if s := m.Solve(context.Background(), Options{}); s.Status != Infeasible {
		t.Errorf("status %v, want infeasible", s.Status)
	}
}

func TestUnboundedModel(t *testing.T) {
	var m Model
	m.AddVar(0, Inf, -1, false, "x")
	if s := m.Solve(context.Background(), Options{}); s.Status != Unbounded {
		t.Errorf("status %v, want unbounded", s.Status)
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x  s.t. x >= -3.6, x integer: the integers >= -3.6 start at -3.
	var m Model
	m.AddVar(-3.6, Inf, 1, true, "x")
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || !approx(s.X[0], -3) {
		t.Fatalf("status %v x %v, want -3", s.Status, s.X)
	}
}

func TestFreeVariable(t *testing.T) {
	// min y  s.t. y >= x - 2, y >= 2 - x with x, y free: min of
	// max(x-2, 2-x) is 0 at x=2.
	var m Model
	x := m.AddVar(-Inf, Inf, 0, false, "x")
	y := m.AddVar(-Inf, Inf, 1, false, "y")
	m.AddCons([]VarID{y, x}, []float64{1, -1}, lp.GE, -2) // y >= x - 2
	m.AddCons([]VarID{y, x}, []float64{1, 1}, lp.GE, 2)   // y >= 2 - x
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || s.Obj < -1e-6 {
		t.Fatalf("status %v obj %v", s.Status, s.Obj)
	}
	// min of max(x-2, 2-x) is 0 at x=2.
	if !approx(s.Obj, 0) {
		t.Errorf("obj %v, want 0", s.Obj)
	}
}

func TestFixedVariableFolding(t *testing.T) {
	var m Model
	x := m.AddVar(2, 2, 3, true, "x") // fixed at 2
	y := m.AddVar(0, 10, 1, true, "y")
	m.AddCons([]VarID{x, y}, []float64{1, 1}, lp.GE, 5)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.X[0], 2) || !approx(s.X[1], 3) || !approx(s.Obj, 9) {
		t.Errorf("x=%v obj=%v", s.X, s.Obj)
	}
	// All-fixed model.
	var m2 Model
	a := m2.AddVar(1, 1, 1, true, "a")
	m2.AddCons([]VarID{a}, []float64{1}, lp.EQ, 1)
	if s := m2.Solve(context.Background(), Options{}); s.Status != Optimal || !approx(s.Obj, 1) {
		t.Errorf("all-fixed: %v obj %v", s.Status, s.Obj)
	}
	// All-fixed infeasible model.
	var m3 Model
	b := m3.AddVar(1, 1, 0, true, "b")
	m3.AddCons([]VarID{b}, []float64{1}, lp.EQ, 2)
	if s := m3.Solve(context.Background(), Options{}); s.Status != Infeasible {
		t.Errorf("all-fixed infeasible: %v", s.Status)
	}
}

func TestEmptyModel(t *testing.T) {
	var m Model
	if s := m.Solve(context.Background(), Options{}); s.Status != Optimal || s.Obj != 0 {
		t.Errorf("empty model: %v", s.Status)
	}
}

func TestBigMIndicator(t *testing.T) {
	// The pattern used by constraint (3): f <= M*v, f >= -M*v with v binary.
	// Force |f| = 3 somewhere; v must rise to 1.
	var m Model
	const M = 100
	v := m.AddBinary(1, "v") // costs 1, so solver wants v=0
	f := m.AddVar(-Inf, Inf, 0, false, "f")
	m.AddCons([]VarID{f, v}, []float64{1, -M}, lp.LE, 0)
	m.AddCons([]VarID{f, v}, []float64{1, M}, lp.GE, 0)
	m.AddCons([]VarID{f}, []float64{1}, lp.EQ, 3)
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if !approx(s.X[v], 1) || !approx(s.X[f], 3) {
		t.Errorf("v=%v f=%v", s.X[v], s.X[f])
	}
}

func TestSetCoverExact(t *testing.T) {
	// Universe {0..4}; sets: {0,1}, {1,2,3}, {3,4}, {0,4}, {2}.
	// Min cover = 2? {1,2,3}+{0,4} covers all: 2 sets. Optimal 2.
	sets := [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {0, 4}, {2}}
	var m Model
	vars := make([]VarID, len(sets))
	for i := range sets {
		vars[i] = m.AddBinary(1, "s")
	}
	for elem := 0; elem < 5; elem++ {
		var idx []VarID
		var coef []float64
		for i, s := range sets {
			for _, e := range s {
				if e == elem {
					idx = append(idx, vars[i])
					coef = append(coef, 1)
				}
			}
		}
		m.AddCons(idx, coef, lp.GE, 1)
	}
	s := m.Solve(context.Background(), Options{})
	if s.Status != Optimal || !approx(s.Obj, 2) {
		t.Fatalf("status %v obj %v, want 2", s.Status, s.Obj)
	}
}

func TestNodeLimit(t *testing.T) {
	// A model needing branching, throttled to 1 node.
	var m Model
	x := m.AddVar(0, 10, -1, true, "x")
	y := m.AddVar(0, 10, -1, true, "y")
	m.AddCons([]VarID{x, y}, []float64{2, 3}, lp.LE, 12.5)
	s := m.Solve(context.Background(), Options{MaxNodes: 1})
	if s.Status != Feasible && s.Status != Limit && s.Status != Optimal {
		t.Errorf("status %v", s.Status)
	}
	full := m.Solve(context.Background(), Options{})
	if full.Status != Optimal {
		t.Fatalf("full solve %v", full.Status)
	}
	if !m.feasible(full.X) {
		t.Errorf("optimum %v violates the model", full.X)
	}
}

// TestCheckRejects pins the feasibility check that validates rounded
// branch-and-bound points: bounds, integrality and each row sense.
func TestCheckRejects(t *testing.T) {
	var m Model
	x := m.AddVar(0, 1, 0, true, "x")
	m.AddCons([]VarID{x}, []float64{1}, lp.LE, 1)
	if !m.feasible([]float64{1}) {
		t.Error("feasible point rejected")
	}
	if m.feasible([]float64{0.5}) {
		t.Error("fractional accepted")
	}
	if m.feasible([]float64{2}) {
		t.Error("out of bounds accepted")
	}
	var m2 Model
	a := m2.AddVar(0, 5, 0, false, "a")
	m2.AddCons([]VarID{a}, []float64{1}, lp.GE, 3)
	m2.AddCons([]VarID{a}, []float64{1}, lp.EQ, 4)
	if !m2.feasible([]float64{4}) {
		t.Error("feasible point rejected")
	}
	if m2.feasible([]float64{2}) {
		t.Error("GE violation accepted")
	}
	if m2.feasible([]float64{3.5}) {
		t.Error("EQ violation accepted")
	}
}

func TestPanics(t *testing.T) {
	var m Model
	mustPanic(t, func() { m.AddVar(2, 1, 0, false, "bad") })
	m.AddBinary(0, "v")
	mustPanic(t, func() { m.AddCons([]VarID{0}, []float64{1, 2}, lp.LE, 0) })
	mustPanic(t, func() { m.AddCons([]VarID{9}, []float64{1}, lp.LE, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	f()
}

// TestRandomKnapsackAgainstBruteForce cross-checks B&B against exhaustive
// enumeration on random 0-1 knapsacks.
func TestRandomKnapsackAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(8) + 2
		w := make([]float64, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i] = float64(rng.Intn(9) + 1)
			v[i] = float64(rng.Intn(9) + 1)
		}
		capW := float64(rng.Intn(20) + 5)
		var m Model
		vars := make([]VarID, n)
		coef := make([]float64, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddBinary(-v[i], "x")
			coef[i] = w[i]
		}
		m.AddCons(vars, coef, lp.LE, capW)
		s := m.Solve(context.Background(), Options{})
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		// Brute force.
		bestVal := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			tw, tv := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					tw += w[i]
					tv += v[i]
				}
			}
			if tw <= capW && tv > bestVal {
				bestVal = tv
			}
		}
		if !approx(-s.Obj, bestVal) {
			t.Fatalf("trial %d: ILP %v vs brute force %v", trial, -s.Obj, bestVal)
		}
	}
}

// TestQuickEqualityPartition: random subset-sum instances must agree with
// brute force on feasibility.
func TestQuickEqualityPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(7) + 1)
		}
		target := float64(rng.Intn(20))
		var m Model
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = m.AddBinary(0, "x")
		}
		m.AddCons(vars, vals, lp.EQ, target)
		s := m.Solve(context.Background(), Options{})
		possible := false
		for mask := 0; mask < 1<<n; mask++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					sum += vals[i]
				}
			}
			if sum == target {
				possible = true
				break
			}
		}
		return possible == (s.Status == Optimal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{Optimal, Feasible, Infeasible, Unbounded, Limit} {
		if s.String() == "" {
			t.Errorf("status %d has empty string", s)
		}
	}
}
