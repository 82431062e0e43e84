package ilp

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/lp"
)

// goldenSolve is one pinned answer in testdata/golden.json. Nodes is the
// serial node count when the answers were recorded.
type goldenSolve struct {
	Status string    `json:"status"`
	Obj    float64   `json:"obj"`
	X      []float64 `json:"x"`
	Nodes  int       `json:"nodes"`
}

// coverModels builds random unit-cost set-cover models: 24 binaries and 18
// rows, each asking for one of 3 or 4 of them, drawn from seed 19. Like the
// path and cut models they have many optimal leaves, which only the
// tie-break tells apart.
func coverModels() []*Model {
	rng := rand.New(rand.NewSource(19))
	var models []*Model
	for trial := 0; trial < 10; trial++ {
		m := new(Model)
		vars := make([]VarID, 24)
		for j := range vars {
			vars[j] = m.AddBinary(1, "x")
		}
		for i := 0; i < 18; i++ {
			members := rng.Perm(len(vars))[:3+rng.Intn(2)]
			slices.Sort(members)
			idx := make([]VarID, len(members))
			coef := make([]float64, len(members))
			for k, j := range members {
				idx[k], coef[k] = vars[j], 1
			}
			m.AddCons(idx, coef, lp.GE, 1)
		}
		models = append(models, m)
	}
	return models
}

// goldenModels are the models testdata/golden.json pins, in file order:
// the random models of TestWorkersBitIdentical, the knapsack, then the
// set-cover models.
func goldenModels() []*Model {
	models := append(randomModels(), knapsackModel())
	return append(models, coverModels()...)
}

// TestILPGolden pins Status, Obj and X of the worker-count models to the
// answers recorded before the search pruned equal-bound nodes that lose
// the (obj, path) tie-break, bit for bit and for 1, 2 and 4 workers. A
// serial solve may explore no more nodes than the recording did.
func TestILPGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenSolve
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	models := goldenModels()
	if len(want) != len(models) {
		t.Fatalf("golden file has %d answers for %d models", len(want), len(models))
	}
	for i, m := range models {
		w := want[i]
		for _, workers := range []int{1, 2, 4} {
			got := m.Solve(context.Background(), Options{Workers: workers})
			if got.Status.String() != w.Status || math.Float64bits(got.Obj) != math.Float64bits(w.Obj) {
				t.Fatalf("model %d workers %d: (%v, %v), want (%s, %v)", i, workers, got.Status, got.Obj, w.Status, w.Obj)
			}
			if len(got.X) != len(w.X) {
				t.Fatalf("model %d workers %d: %d coordinates, want %d", i, workers, len(got.X), len(w.X))
			}
			for j := range w.X {
				if math.Float64bits(got.X[j]) != math.Float64bits(w.X[j]) {
					t.Fatalf("model %d workers %d: X = %v, want %v", i, workers, got.X, w.X)
				}
			}
			if workers == 1 && got.Nodes > w.Nodes {
				t.Errorf("model %d: %d serial nodes, recorded %d", i, got.Nodes, w.Nodes)
			}
		}
	}
}
