package lru

import (
	"slices"
	"testing"
)

// keys lists the cache from most to least recently used.
func keys[V any](c *Cache[V]) []string {
	var out []string
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

func check[V any](t *testing.T, c *Cache[V], dropped, wantDropped, wantKeys []string) {
	t.Helper()
	if !slices.Equal(dropped, wantDropped) {
		t.Errorf("Put dropped %v, want %v", dropped, wantDropped)
	}
	if got := keys(c); !slices.Equal(got, wantKeys) {
		t.Errorf("cache holds %v, want %v", got, wantKeys)
	}
	if c.Len() != len(wantKeys) {
		t.Errorf("Len = %d, want %d", c.Len(), len(wantKeys))
	}
}

// TestEvictsColdEnd: a Get makes its key the most recently used, and Put
// evicts from the other end, returning the victims coldest first.
func TestEvictsColdEnd(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		if dropped := c.Put(k, i, 1); dropped != nil {
			t.Fatalf("Put(%s) into room dropped %v", k, dropped)
		}
	}
	check(t, c, nil, nil, []string{"c", "b", "a"})
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	check(t, c, c.Put("d", 3, 1), []string{"b"}, []string{"d", "a", "c"})
	check(t, c, c.Put("e", 4, 2), []string{"c", "a"}, []string{"e", "d"})
	if c.Cost() != 3 || c.Cap() != 3 {
		t.Errorf("Cost = %d, Cap = %d; want 3 and 3", c.Cost(), c.Cap())
	}
	if _, ok := c.Get("b"); ok {
		t.Error("an evicted key is still served")
	}
}

// TestPinnedPassedOver: eviction skips pinned values, however cold, and
// takes the new value itself when nothing older can go.
func TestPinnedPassedOver(t *testing.T) {
	c := New[string](2)
	c.Put("a", "A", 1)
	c.Put("b", "B", 1)
	unpinA, ok := c.Pin("a")
	if !ok {
		t.Fatal("Pin(a) missed")
	}
	check(t, c, c.Put("c", "C", 1), []string{"b"}, []string{"c", "a"})
	unpinC, _ := c.Pin("c")
	check(t, c, c.Put("d", "D", 1), []string{"d"}, []string{"c", "a"})
	unpinA()
	unpinC()
	check(t, c, c.Put("e", "E", 1), []string{"a"}, []string{"e", "c"})
	if _, ok := c.Pin("a"); ok {
		t.Error("Pin of an evicted key succeeded")
	}
}

// TestDearerThanBudget: a value that costs more than the whole budget is
// not kept, replaces nothing, and comes back as dropped.
func TestDearerThanBudget(t *testing.T) {
	c := New[int](5)
	c.Put("a", 1, 2)
	check(t, c, c.Put("big", 2, 6), []string{"big"}, []string{"a"})
	check(t, c, c.Put("a", 3, 6), []string{"a"}, nil)
	if c.Cost() != 0 {
		t.Errorf("Cost = %d after every value went, want 0", c.Cost())
	}
	check(t, c, c.Put("fits", 4, 5), nil, []string{"fits"})
}

// TestUnlimitedBudget: a budget <= 0 never evicts.
func TestUnlimitedBudget(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := New[int](budget)
		for i, k := range []string{"a", "b", "c"} {
			if dropped := c.Put(k, i, 1<<40); dropped != nil {
				t.Fatalf("budget %d: Put(%s) dropped %v", budget, k, dropped)
			}
		}
		if c.Len() != 3 || c.Cost() != 3<<40 {
			t.Errorf("budget %d: Len = %d, Cost = %d", budget, c.Len(), c.Cost())
		}
	}
}

// TestPutReplaces: a Put of a held key replaces its value and cost.
func TestPutReplaces(t *testing.T) {
	c := New[int](10)
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	check(t, c, c.Put("a", 3, 6), nil, []string{"a", "b"})
	if v, _ := c.Get("a"); v != 3 || c.Cost() != 10 {
		t.Errorf("Get(a) = %d, Cost = %d; want 3 and 10", v, c.Cost())
	}
}

// TestUnpinReleasesItsOwnPin: a pin stays with the value it was taken on.
// A reader that pinned a key which was then removed (the plan store
// quarantines an entry a racing reader found corrupt) and stored again
// must not release the pin a second reader holds on the new value.
func TestUnpinReleasesItsOwnPin(t *testing.T) {
	c := New[string](2)
	c.Put("k", "old", 1)
	unpinOld, _ := c.Pin("k")
	c.Remove("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("a removed key is still served")
	}
	c.Put("k", "new", 1)
	unpinNew, _ := c.Pin("k")
	unpinOld()
	c.Put("x", "X", 1)
	check(t, c, c.Put("y", "Y", 1), []string{"x"}, []string{"y", "k"})
	unpinNew()
	check(t, c, c.Put("z", "Z", 1), []string{"k"}, []string{"z", "y"})
}
