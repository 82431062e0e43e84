package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"repro/cmd/internal/api"
)

func TestCartesianProductSortedKeyOrder(t *testing.T) {
	got := cartesianProduct(map[string][]string{"y": {"1", "2"}, "x": {"b", "a"}})
	want := []map[string]string{
		{"x": "b", "y": "1"},
		{"x": "b", "y": "2"},
		{"x": "a", "y": "1"},
		{"x": "a", "y": "2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cartesianProduct = %v, want %v", got, want)
	}
}

// bodies returns the hashes of a stream's first n request bodies, drawn
// by alternating clients.
func bodies(t *testing.T, w workload, seed uint64, n int) [][sha256.Size]byte {
	t.Helper()
	st, err := w.newStream(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][sha256.Size]byte, n)
	for i := range out {
		req, err := st.next(i % numClients)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sha256.Sum256(req.body)
	}
	return out
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := bodies(t, w, 1, 500), bodies(t, w, 1, 500)
			if !reflect.DeepEqual(a, b) {
				t.Error("two streams with seed 1 sent different bodies")
			}
			if reflect.DeepEqual(a, bodies(t, w, 2, 500)) {
				t.Error("seeds 1 and 2 sent the same bodies")
			}
		})
	}
}

// TestColdArraysAreUnique checks that generate-cold never sends an array
// twice, the warm-up arrays (the negative request numbers) included.
func TestColdArraysAreUnique(t *testing.T) {
	w, _ := findWorkload("generate-cold")
	st := newColdStream(1, "generate-cold")
	wu, err := newWarmUp(w, st)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []request
	for _, r := range wu.reqs {
		reqs = append(reqs, r...)
	}
	seen := make(map[[sha256.Size]byte]int)
	for i := -len(reqs); i < 5000; i++ {
		var req request
		if i < 0 {
			req = reqs[len(reqs)+i]
		} else if req, err = st.next(0); err != nil {
			t.Fatal(err)
		}
		var sub api.SubmitRequest
		if err := json.Unmarshal(req.body, &sub); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(sub.Array)
		if j, dup := seen[h]; dup {
			t.Fatalf("request %d repeats the array of request %d", i, j)
		}
		seen[h] = i
	}
}

// TestExactILPClientSharesAreDisjoint checks, for two clients, that each
// draws every variant of its own share equally often and none of the
// other's.
func TestExactILPClientSharesAreDisjoint(t *testing.T) {
	st, err := newILPStream(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var shares [2]map[int]int
	for c := range shares {
		shares[c] = make(map[int]int)
		for i := 0; i < 400; i++ {
			req, err := st.next(c)
			if err != nil {
				t.Fatal(err)
			}
			shares[c][req.key]++
		}
		if len(shares[c]) != ilpVariants/2 {
			t.Errorf("client %d drew %d variants, want %d", c, len(shares[c]), ilpVariants/2)
		}
		for k, n := range shares[c] {
			if n != 400/(ilpVariants/2) {
				t.Errorf("client %d drew variant %d %d times, want %d", c, k, n, 400/(ilpVariants/2))
			}
		}
	}
	for k := range shares[0] {
		if shares[1][k] > 0 {
			t.Errorf("variant %d is drawn by both clients", k)
		}
	}
	for i, a := range st.variants {
		for _, b := range st.variants[:i] {
			if bytes.Equal(a.body, b.body) {
				t.Fatalf("variant %d repeats an earlier one", i)
			}
		}
	}
}
