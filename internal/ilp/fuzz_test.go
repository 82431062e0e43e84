package ilp

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
)

// decodeFuzzModel turns a byte stream into a small 0-1 model with integer
// objective coefficients: up to 4 binaries and 4 constraints.
func decodeFuzzModel(data []byte) *Model {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, ok := next()
	if !ok {
		return nil
	}
	n := 1 + int(b)%4
	b, ok = next()
	if !ok {
		return nil
	}
	mrows := int(b) % 4
	var m Model
	for j := 0; j < n; j++ {
		ob, ok := next()
		if !ok {
			return nil
		}
		m.AddBinary(float64(int(ob)%7-3), "x")
	}
	idx := make([]VarID, n)
	for j := range idx {
		idx[j] = VarID(j)
	}
	for i := 0; i < mrows; i++ {
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			cb, ok := next()
			if !ok {
				return nil
			}
			coef[j] = float64(int(cb)%5 - 2)
		}
		sB, ok1 := next()
		rB, ok2 := next()
		if !ok1 || !ok2 {
			return nil
		}
		m.AddCons(idx, coef, lp.Sense(int(sB)%3), float64(int(rB)%7-3))
	}
	return &m
}

// bruteForce01 enumerates all 0-1 assignments and returns the best
// objective, or +Inf when none is feasible.
func bruteForce01(m *Model) float64 {
	n := len(m.vars)
	best := math.Inf(1)
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = float64(mask >> j & 1)
		}
		if !m.feasible(x) {
			continue
		}
		if obj := m.Objective(x); obj < best {
			best = obj
		}
	}
	return best
}

// FuzzModelSolve cross-checks branch-and-bound against exhaustive 0-1
// enumeration, and checks that the result is bit-identical for any worker
// count — the determinism contract of Options.Workers.
func FuzzModelSolve(f *testing.F) {
	f.Add([]byte{2, 1, 3, 1, 2, 1, 0, 1, 2, 5})
	f.Add([]byte{3, 2, 6, 0, 2, 4, 1, 0, 2, 1, 0, 3, 2, 1, 1, 6})
	f.Add([]byte{1, 1, 2, 4, 2, 1})
	f.Add([]byte{0, 3, 5, 0, 0, 4, 1, 1, 2, 2, 1, 3, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeFuzzModel(data)
		if m == nil {
			return
		}
		want := bruteForce01(m)
		serial := m.Solve(context.Background(), Options{})
		if math.IsInf(want, 1) {
			if serial.Status != Infeasible {
				t.Fatalf("brute force infeasible, solver says %v", serial.Status)
			}
		} else {
			if serial.Status != Optimal {
				t.Fatalf("brute force optimum %v, solver says %v", want, serial.Status)
			}
			if math.Abs(serial.Obj-want) > 1e-6 {
				t.Fatalf("solver obj %v, brute force %v", serial.Obj, want)
			}
			if !m.feasible(serial.X) {
				t.Fatalf("solver solution %v violates the model", serial.X)
			}
		}
		for _, workers := range []int{2, 3, 8} {
			par := m.Solve(context.Background(), Options{Workers: workers})
			if par.Status != serial.Status || par.Obj != serial.Obj {
				t.Fatalf("workers=%d: status/obj (%v, %v) differs from serial (%v, %v)",
					workers, par.Status, par.Obj, serial.Status, serial.Obj)
			}
			if len(par.X) != len(serial.X) {
				t.Fatalf("workers=%d: X length %d vs %d", workers, len(par.X), len(serial.X))
			}
			for j := range par.X {
				if par.X[j] != serial.X[j] {
					t.Fatalf("workers=%d: X[%d]=%v differs from serial %v",
						workers, j, par.X[j], serial.X[j])
				}
			}
		}
	})
}
