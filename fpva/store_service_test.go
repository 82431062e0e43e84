package fpva

// Service-level tests of the durable plan store (WithCacheDir) and the
// admission controls (WithMaxPending, WithJobTimeout). These are
// in-package: the store fault-injection seam (withStoreHooks) is
// deliberately unexported.

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestCacheDirRestartServesIdenticalBytes is the restart-persistence
// acceptance check: a new service over the same cache directory serves
// bit-identical plan bytes without re-solving.
func TestCacheDirRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	a, err := NewArray(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := NewService(WithCacheDir(dir))
	first, err := generateOn(t, svc1, a).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if st := svc1.Stats(); st.Store.Mode != "ok" || st.Store.Writes != 1 {
		t.Fatalf("after first solve: store = %+v", st.Store)
	}
	svc1.Close()

	// "Restart": a fresh service, same directory, cold memory cache.
	svc2 := NewService(WithCacheDir(dir))
	defer svc2.Close()
	b, err := NewArray(5, 5) // content-identical, distinct instance
	if err != nil {
		t.Fatal(err)
	}
	j := generateOn(t, svc2, b)
	if !j.CacheHit() {
		t.Error("restarted service missed its disk cache")
	}
	second, err := j.PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted service served different plan bytes")
	}
	st := svc2.Stats()
	if st.Solves != 0 {
		t.Errorf("restarted service re-solved: %d solves", st.Solves)
	}
	if st.Store.Hits != 1 {
		t.Errorf("store hits = %d, want 1", st.Store.Hits)
	}
}

// TestCacheDirConcurrentIdenticalSubmissions: after a restart, N
// concurrent identical submissions coalesce onto one disk read (the
// read-back happens inside the singleflight).
func TestCacheDirConcurrentIdenticalSubmissions(t *testing.T) {
	dir := t.TempDir()
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := NewService(WithCacheDir(dir))
	want, err := generateOn(t, svc1, a).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2 := NewService(WithCacheDir(dir))
	defer svc2.Close()
	const n = 8
	var wg sync.WaitGroup
	wires := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ai, err := NewArray(4, 4)
			if err != nil {
				t.Error(err)
				return
			}
			j, err := svc2.SubmitGenerate(context.Background(), ai)
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			wires[i], _ = j.PlanBytes()
		}(i)
	}
	wg.Wait()
	for i, w := range wires {
		if !bytes.Equal(w, want) {
			t.Errorf("submission %d served different bytes", i)
		}
	}
	st := svc2.Stats()
	if st.Solves != 0 {
		t.Errorf("re-solved despite disk cache: %d solves", st.Solves)
	}
	if st.Store.Hits > 1 {
		t.Errorf("store hits = %d, want <= 1 (singleflight should coalesce)", st.Store.Hits)
	}
}

// portedArray builds the 4x4 array of TestCacheDirPortBinding: a source
// at H(0,0) and two sinks, attached as V(4,1) then H(3,4) (the reverse of
// scan order) and named as given.
func portedArray(t *testing.T, first, second string) *Array {
	t.Helper()
	a, err := NewArray(4, 4, WithSource("in", H(0, 0)), WithSink(first, V(4, 1)), WithSink(second, H(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// sinkPort is one sink as a caller attached it.
type sinkPort struct {
	Name string
	Edge Edge
}

// sinkPorts lists the array's sinks in attachment order, the order its
// simulator reads them in.
func sinkPorts(a *Array) []sinkPort {
	var out []sinkPort
	for _, pt := range a.g.Ports() {
		if !pt.Source {
			out = append(out, sinkPort{pt.Name, edgeOf(a.g, pt.Valve)})
		}
	}
	return out
}

// checkPortBinding fails unless the generate job j, submitted with a,
// returns a plan whose sinks are a's, by name and edge in attachment
// order, with the vectors of want.
func checkPortBinding(t *testing.T, label string, j *Job, a *Array, want *Plan) {
	t.Helper()
	p, err := j.Plan()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got, exp := sinkPorts(p.Array()), sinkPorts(a); !slices.Equal(got, exp) {
		t.Errorf("%s: the caller's sinks are %v, its plan's %v", label, exp, got)
	}
	if compiledKey(p) != compiledKey(want) {
		t.Errorf("%s: the plan's vectors differ from the solved plan's", label)
	}
}

// TestCacheDirPortBinding: a generate job's plan sits on the array its
// caller submitted, whichever path served it. The wire text carries
// neither port names nor attachment order, and the plan key leaves names
// out, so a plan served from the store, from the memory cache or from
// another caller's solve must be bound to the caller's own ports.
func TestCacheDirPortBinding(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	svc1 := NewService(WithCacheDir(dir), WithServiceWorkers(1))
	defer svc1.Close() // on an early failure; the restart below closes it first

	// Hold the only worker slot, so that a second caller coalesces onto
	// the first one's flight before the solve starts.
	blockArr, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselinePlan(blockArr)
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := svc1.SubmitCampaign(ctx, base, WithTrials(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the blocking campaign", func() bool { return blocker.State() == JobRunning })
	leadArr, followArr := portedArray(t, "y", "x"), portedArray(t, "p", "q")
	lead, err := svc1.SubmitGenerate(ctx, leadArr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor("the flight", func() bool { return svc1.Stats().CacheMisses == 1 })
	follow, err := svc1.SubmitGenerate(ctx, followArr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor("the follower", func() bool { return svc1.Stats().CacheCoalesced == 1 })
	blocker.Cancel()
	for _, j := range []*Job{lead, follow} {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	solved, err := lead.Plan()
	if err != nil {
		t.Fatal(err)
	}
	checkPortBinding(t, "leader", lead, leadArr, solved)
	checkPortBinding(t, "follower", follow, followArr, solved)
	hitArr := portedArray(t, "m", "n")
	hit := generateOn(t, svc1, hitArr)
	if !hit.CacheHit() {
		t.Fatal("the renamed submission missed the memory cache")
	}
	checkPortBinding(t, "memory hit", hit, hitArr, solved)
	svc1.Close()

	// Restart: the plan comes back from the store, then from memory.
	svc2 := NewService(WithCacheDir(dir))
	defer svc2.Close()
	for _, c := range []struct{ label, first, second string }{
		{"read-back", "y", "x"},
		{"memory hit on the read-back", "p", "q"},
	} {
		a := portedArray(t, c.first, c.second)
		j := generateOn(t, svc2, a)
		if !j.CacheHit() {
			t.Fatalf("%s: missed the cache", c.label)
		}
		checkPortBinding(t, c.label, j, a, solved)
	}
	if st := svc2.Stats(); st.Solves != 0 || st.Store.Hits != 1 || st.CacheHits != 1 {
		t.Errorf("after the restart: %d solves, %d store hits, %d memory hits, want 0, 1 and 1",
			st.Solves, st.Store.Hits, st.CacheHits)
	}
}

// TestCacheDirEvictionUnderConcurrentLoad: a tiny disk budget under
// concurrent distinct submissions evicts without corrupting, racing, or
// tripping the store.
func TestCacheDirEvictionUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {2, 4}, {4, 2}, {3, 4}, {4, 3}}
	// Budget sized off one real plan so the full set cannot fit.
	probe := NewService(WithCacheDir(t.TempDir()))
	a0, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	wire0, err := generateOn(t, probe, a0).PlanBytes()
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	cap := int64(len(wire0)) * 3

	svc := NewService(WithCacheDir(dir), WithDiskCacheBytes(cap))
	defer svc.Close()
	var wg sync.WaitGroup
	var total int64
	var mu sync.Mutex
	for round := 0; round < 2; round++ {
		for _, sh := range shapes {
			wg.Add(1)
			go func(r, c int) {
				defer wg.Done()
				a, err := NewArray(r, c)
				if err != nil {
					t.Error(err)
					return
				}
				j, err := svc.SubmitGenerate(context.Background(), a)
				if err != nil {
					t.Error(err)
					return
				}
				if err := j.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
				if w, err := j.PlanBytes(); err == nil {
					mu.Lock()
					total += int64(len(w))
					mu.Unlock()
				}
			}(sh[0], sh[1])
		}
		wg.Wait()
	}
	st := svc.Stats()
	if st.Store.Mode != "ok" {
		t.Fatalf("store tripped under eviction load: %+v", st.Store)
	}
	if st.Store.Bytes > cap {
		t.Errorf("store over budget: %d > %d", st.Store.Bytes, cap)
	}
	if total/2 > cap && st.Store.Evictions == 0 {
		t.Errorf("wrote %d bytes into a %d budget with no evictions", total/2, cap)
	}
}

// TestStoreDegradedTripAndRecover: a write-path EIO flips the service's
// store to degraded (visible in Stats), jobs keep succeeding, and once
// the disk heals the next post-backoff write recovers it.
func TestStoreDegradedTripAndRecover(t *testing.T) {
	clock := newTestClock()
	ffs := &store.FaultFS{Base: store.OSFS()}
	svc := NewService(
		WithCacheDir(t.TempDir()),
		withStoreHooks(ffs, clock.Now, time.Second, time.Minute),
	)
	defer svc.Close()

	eio := errors.New("injected EIO")
	ffs.SetHook(func(op store.Op, path string) error {
		if op == store.OpCreateTemp {
			return eio
		}
		return nil
	})
	a, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	j := generateOn(t, svc, a) // solve succeeds; the write-through fails
	if _, err := j.Plan(); err != nil {
		t.Fatalf("job failed because of a store error: %v", err)
	}
	st := svc.Stats()
	if st.Store.Mode != "degraded" || st.Store.Trips != 1 {
		t.Fatalf("store after EIO: %+v", st.Store)
	}

	ffs.SetHook(nil)
	clock.Advance(2 * time.Second)
	b, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	generateOn(t, svc, b) // this write is the probe
	st = svc.Stats()
	if st.Store.Mode != "ok" || st.Store.Recoveries != 1 {
		t.Fatalf("store after heal: %+v", st.Store)
	}
}

// TestMaxPendingShedsQueueFull: with the admission bound at 1, a second
// submission while the first is still running fails fast with
// ErrQueueFull, and the shed is counted.
func TestMaxPendingShedsQueueFull(t *testing.T) {
	svc := NewService(WithServiceWorkers(1), WithMaxPending(1))
	defer svc.Close()
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	j1, err := svc.SubmitGenerate(context.Background(), a,
		WithProgress(func(Event) {
			once.Do(func() { close(started) })
			<-release
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	b, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitGenerate(context.Background(), b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submission: err = %v, want ErrQueueFull", err)
	}
	if st := svc.Stats(); st.JobsShed != 1 {
		t.Errorf("JobsShed = %d, want 1", st.JobsShed)
	}

	close(release)
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The slot freed: the same submission is admitted now.
	j2, err := svc.SubmitGenerate(context.Background(), b)
	if err != nil {
		t.Fatalf("post-drain submission still shed: %v", err)
	}
	if err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobTimeoutCancelsQueuedJob: WithJobTimeout covers queue wait, so
// a job stuck behind a hog is canceled at its deadline without ever
// holding a worker slot.
func TestJobTimeoutCancelsQueuedJob(t *testing.T) {
	svc := NewService(WithServiceWorkers(1), WithJobTimeout(100*time.Millisecond))
	defer svc.Close()
	a, err := NewArray(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hog, err := svc.SubmitGenerate(context.Background(), a,
		WithProgress(func(Event) {
			once.Do(func() { close(started) })
			<-release
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	b, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitGenerate(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(context.Background()); err == nil {
		t.Fatal("queued job finished despite the hogged worker")
	}
	if got := queued.State(); got != JobCanceled {
		t.Errorf("queued job state = %v, want canceled", got)
	}
	close(release)
	hog.Wait(context.Background())
}
