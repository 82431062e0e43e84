package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// key derives a valid store key from a short label.
func key(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// fakeClock is an injectable, advanceable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestPutGetRoundTrip(t *testing.T) {
	s := Open(Options{Dir: t.TempDir()})
	k, v := key("a"), []byte("payload-a")
	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store returned a value")
	}
	s.Put(k, v)
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, v) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, v)
	}
	st := s.Stats()
	if st.Mode != "ok" || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != int64(len(v)) {
		t.Errorf("Bytes = %d, want %d", st.Bytes, len(v))
	}
}

func TestReopenServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	vals := map[string][]byte{}
	s := Open(Options{Dir: dir})
	for _, label := range []string{"a", "b", "c"} {
		v := []byte(strings.Repeat(label, 100))
		vals[key(label)] = v
		s.Put(key(label), v)
	}
	// A fresh Open (a restarted daemon) must serve bit-identical bytes.
	s2 := Open(Options{Dir: dir})
	if st := s2.Stats(); st.Mode != "ok" || st.Entries != 3 {
		t.Fatalf("reopened stats = %+v", st)
	}
	for k, want := range vals {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("key %s: Get = %v, %v", k[:8], ok, bytes.Equal(got, want))
		}
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := Open(Options{Dir: t.TempDir()})
	for _, k := range []string{"", "short", "../../../../etc/passwd", key("x") + "/../y",
		strings.ToUpper(key("x")), strings.Repeat("a", 129)} {
		s.Put(k, []byte("v"))
		if _, ok := s.Get(k); ok {
			t.Errorf("key %q: stored despite being invalid", k)
		}
	}
	if st := s.Stats(); st.Entries != 0 || st.Writes != 0 {
		t.Errorf("stats after invalid keys = %+v", st)
	}
}

func TestOversizePayloadSkipped(t *testing.T) {
	s := Open(Options{Dir: t.TempDir(), CapBytes: 16})
	s.Put(key("big"), bytes.Repeat([]byte("x"), 17))
	if st := s.Stats(); st.Entries != 0 || st.Writes != 0 {
		t.Errorf("oversize payload was stored: %+v", st)
	}
}

func TestBitFlipQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{Dir: dir})
	k := key("flip")
	s.Put(k, []byte("precious payload bytes"))
	// Flip one payload bit behind the store's back.
	path := filepath.Join(dir, "plans", k+".plan")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get served a corrupt entry")
	}
	st := s.Stats()
	if st.Mode != "ok" {
		t.Errorf("corruption tripped degraded mode: %+v", st)
	}
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want Quarantined=1 Entries=0", st)
	}
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qents) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qents), err)
	}
	// The key stays usable: a rewrite stores a fresh verified entry.
	s.Put(k, []byte("precious payload bytes"))
	if _, ok := s.Get(k); !ok {
		t.Error("re-Put after quarantine did not store")
	}
}

func TestTruncatedEntryQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{Dir: dir})
	k, k2 := key("torn"), key("whole")
	s.Put(k, bytes.Repeat([]byte("t"), 256))
	s.Put(k2, []byte("intact"))
	// Simulate a torn write that somehow reached the final name (e.g. a
	// crash after a non-atomic filesystem lied about rename durability).
	path := filepath.Join(dir, "plans", k+".plan")
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}
	s2 := Open(Options{Dir: dir})
	st := s2.Stats()
	if st.Mode != "ok" || st.Quarantined != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want ok/Quarantined=1/Entries=1", st)
	}
	if _, ok := s2.Get(k); ok {
		t.Error("truncated entry served")
	}
	if v, ok := s2.Get(k2); !ok || string(v) != "intact" {
		t.Error("intact entry lost during recovery")
	}
}

func TestTmpDebrisClearedOnOpen(t *testing.T) {
	dir := t.TempDir()
	Open(Options{Dir: dir})
	debris := filepath.Join(dir, "tmp", key("junk")+".123")
	if err := os.WriteFile(debris, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	Open(Options{Dir: dir})
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Error("tmp debris survived Open")
	}
}

func TestJournalGhostDropped(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{Dir: dir})
	k := key("ghost")
	s.Put(k, []byte("stored then lost"))
	// The file goes behind the store's back while its index still lists
	// the entry. The directory is the only record, so the reopened store
	// has no entry for it.
	if err := os.Remove(filepath.Join(dir, "plans", k+".plan")); err != nil {
		t.Fatal(err)
	}
	s2 := Open(Options{Dir: dir})
	st := s2.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("ghost survived reopen: %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{Dir: dir, CapBytes: 300})
	v := bytes.Repeat([]byte("x"), 100)
	s.Put(key("a"), v)
	s.Put(key("b"), v)
	s.Put(key("c"), v)
	// Touch "a": "b" becomes the LRU tail.
	if _, ok := s.Get(key("a")); !ok {
		t.Fatal("warm Get missed")
	}
	s.Put(key("d"), v) // over budget: evict exactly "b"
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 300 {
		t.Fatalf("stats = %+v, want Evictions=1 Entries=3 Bytes=300", st)
	}
	if _, ok := s.Get(key("b")); ok {
		t.Error("LRU victim still served")
	}
	for _, label := range []string{"a", "c", "d"} {
		if _, ok := s.Get(key(label)); !ok {
			t.Errorf("entry %q evicted out of LRU order", label)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "plans", key("b")+".plan")); !os.IsNotExist(err) {
		t.Error("victim file not removed")
	}
}

func TestLRUOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	// Whole seconds apart, so the order holds on filesystems with coarse
	// mtimes too and does not depend on the host timer.
	clock := newFakeClock()
	s := Open(Options{Dir: dir, CapBytes: 300, Now: clock.Now})
	v := bytes.Repeat([]byte("x"), 100)
	for _, label := range []string{"a", "b", "c"} {
		clock.Advance(time.Second)
		s.Put(key(label), v)
	}
	clock.Advance(time.Second)
	s.Get(key("a")) // touch a: LRU order is now b, c, a
	s2 := Open(Options{Dir: dir, CapBytes: 300, Now: clock.Now})
	clock.Advance(time.Second)
	s2.Put(key("d"), v) // must evict "b", the LRU tail rebuilt from mtimes
	if _, ok := s2.Get(key("b")); ok {
		t.Error("reopened LRU order lost: b survived")
	}
	if _, ok := s2.Get(key("a")); !ok {
		t.Error("reopened LRU order lost: a evicted")
	}
}

// TestOldJournalRemoved: a directory an older build wrote still holds
// its journal file. It opens with every entry and without the journal,
// whose "d" line for an entry whose file is there is ignored.
func TestOldJournalRemoved(t *testing.T) {
	dir := t.TempDir()
	s := Open(Options{Dir: dir})
	for _, label := range []string{"a", "b"} {
		s.Put(key(label), []byte("v-"+label))
	}
	journal := filepath.Join(dir, "journal")
	old := "p " + key("a") + " 3\np " + key("b") + " 3\nd " + key("a") + "\n"
	if err := os.WriteFile(journal, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := Open(Options{Dir: dir})
	if st := s2.Stats(); st.Mode != "ok" || st.Entries != 2 || st.Bytes != 6 {
		t.Fatalf("reopened stats = %+v, want ok/Entries=2/Bytes=6", st)
	}
	for _, label := range []string{"a", "b"} {
		if v, ok := s2.Get(key(label)); !ok || string(v) != "v-"+label {
			t.Errorf("entry %q lost on reopen", label)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("old journal survived Open: %v", err)
	}
}

func TestPinnedReaderNeverEvicted(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Base: OSFS()}
	s := Open(Options{Dir: dir, CapBytes: 300, FS: ffs})
	v := bytes.Repeat([]byte("p"), 100)
	target := filepath.Join(dir, "plans", key("pinned")+".plan")
	s.Put(key("pinned"), v)
	s.Put(key("other"), v)

	// Hold a Get of "pinned" mid-read while eviction pressure arrives.
	readEntered := make(chan struct{})
	releaseRead := make(chan struct{})
	var once sync.Once
	ffs.SetHook(func(op Op, path string) error {
		if op == OpRead && path == target {
			once.Do(func() { close(readEntered) })
			<-releaseRead
		}
		return nil
	})
	got := make(chan []byte)
	go func() {
		b, _ := s.Get(key("pinned"))
		got <- b
	}()
	<-readEntered
	// "pinned" is the LRU tail (oldest, its MoveToFront happens only
	// after the read completes) but pinned; eviction must pass over it.
	s.Put(key("x1"), v)
	s.Put(key("x2"), v)
	close(releaseRead)
	if b := <-got; !bytes.Equal(b, v) {
		t.Fatal("in-flight read returned wrong bytes under eviction pressure")
	}
	ffs.SetHook(nil)
	if _, err := os.Stat(target); err != nil {
		t.Error("pinned entry's file was removed while being read")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Error("eviction pressure never evicted anything else")
	}
}

func TestEIOTripsDegradedWithDoublingBackoff(t *testing.T) {
	clock := newFakeClock()
	ffs := &FaultFS{Base: OSFS()}
	s := Open(Options{
		Dir: t.TempDir(), FS: ffs, Now: clock.Now,
		BackoffMin: time.Second, BackoffMax: 8 * time.Second,
	})
	eio := errors.New("injected EIO")
	ffs.SetHook(func(op Op, path string) error {
		if op == OpCreateTemp {
			return eio
		}
		return nil
	})

	s.Put(key("w1"), []byte("v1")) // trips
	st := s.Stats()
	if st.Mode != "degraded" || st.Trips != 1 || st.WriteErrors != 1 {
		t.Fatalf("after first failure: %+v", st)
	}
	if !strings.Contains(st.Reason, "injected EIO") {
		t.Errorf("Reason = %q, want the injected error", st.Reason)
	}
	if _, ok := s.Get(key("w1")); ok {
		t.Fatal("degraded store served a value")
	}

	// Inside the backoff window every Put is skipped without disk I/O.
	s.Put(key("w2"), []byte("v2"))
	if st := s.Stats(); st.SkippedWrites != 1 || st.WriteErrors != 1 {
		t.Fatalf("inside backoff window: %+v", st)
	}
	// At the 1s probe point the Put really probes, fails, and the backoff
	// doubles to 2s.
	clock.Advance(time.Second)
	s.Put(key("w3"), []byte("v3"))
	if st := s.Stats(); st.WriteErrors != 2 || st.Trips != 1 {
		t.Fatalf("first probe: %+v", st)
	}
	clock.Advance(time.Second) // 1s into the 2s window: still skipped
	s.Put(key("w4"), []byte("v4"))
	if st := s.Stats(); st.SkippedWrites != 2 || st.WriteErrors != 2 {
		t.Fatalf("inside doubled window: %+v", st)
	}

	// Disk heals; the next probe succeeds and the store resumes.
	ffs.SetHook(nil)
	clock.Advance(time.Second)
	s.Put(key("w5"), []byte("v5"))
	st = s.Stats()
	if st.Mode != "ok" || st.Recoveries != 1 || st.Writes != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if v, ok := s.Get(key("w5")); !ok || string(v) != "v5" {
		t.Error("recovered store did not serve the probe write")
	}
}

// TestTouchFailureTripsDegraded: a failed mtime touch, on a Get hit or
// on a Put of a stored key, counts a write error and trips degraded
// mode, as a failed write does. The verified Get still serves its bytes.
func TestTouchFailureTripsDegraded(t *testing.T) {
	for _, op := range []string{"get", "put"} {
		t.Run(op, func(t *testing.T) {
			ffs := &FaultFS{Base: OSFS()}
			s := Open(Options{Dir: t.TempDir(), FS: ffs})
			k := key("touch")
			s.Put(k, []byte("v"))
			ffs.SetHook(func(o Op, path string) error {
				if o == OpChtimes {
					return errors.New("injected EIO")
				}
				return nil
			})
			if op == "get" {
				if v, ok := s.Get(k); !ok || string(v) != "v" {
					t.Fatalf("Get = %q, %v; want the verified bytes", v, ok)
				}
			} else {
				s.Put(k, []byte("v"))
			}
			st := s.Stats()
			if st.Mode != "degraded" || st.Trips != 1 || st.WriteErrors != 1 || st.ReadErrors != 0 {
				t.Fatalf("after a failed touch: %+v", st)
			}
			if !strings.Contains(st.Reason, "touch") || !strings.Contains(st.Reason, "injected EIO") {
				t.Errorf("Reason = %q, want the failed touch", st.Reason)
			}
		})
	}
}

func TestOpenDegradedFromBirthThenRecovers(t *testing.T) {
	clock := newFakeClock()
	ffs := &FaultFS{Base: OSFS()}
	fail := errors.New("disk unreachable")
	ffs.SetHook(func(op Op, path string) error {
		if op == OpMkdirAll {
			return fail
		}
		return nil
	})
	s := Open(Options{Dir: filepath.Join(t.TempDir(), "cache"), FS: ffs, Now: clock.Now,
		BackoffMin: time.Second, BackoffMax: time.Minute})
	if st := s.Stats(); st.Mode != "degraded" || st.Trips != 1 {
		t.Fatalf("Open on a sick disk: %+v", st)
	}
	ffs.SetHook(nil)
	clock.Advance(time.Second)
	s.Put(key("first"), []byte("v"))
	st := s.Stats()
	if st.Mode != "ok" || st.Recoveries != 1 || st.Entries != 1 {
		t.Fatalf("after disk reappears: %+v", st)
	}
	if _, ok := s.Get(key("first")); !ok {
		t.Error("recovered store lost the probe write")
	}
}

func TestConcurrentPutGetEvict(t *testing.T) {
	s := Open(Options{Dir: t.TempDir(), CapBytes: 2000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				label := fmt.Sprintf("k%d", (g+i)%20)
				v := bytes.Repeat([]byte{byte('a' + (g+i)%20)}, 200)
				s.Put(key(label), v)
				if got, ok := s.Get(key(label)); ok && !bytes.Equal(got, v) {
					t.Errorf("Get returned wrong bytes for %s", label)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Mode != "ok" {
		t.Fatalf("concurrent churn tripped the store: %+v", st)
	}
	if st.Bytes > 2000 {
		t.Errorf("byte budget exceeded after churn: %+v", st)
	}
}

// TestKill9MidWrite is the crash-safety acceptance check: a child
// process writing entries is SIGKILLed at a random instant; the
// reopened store must either serve each entry verbatim or not at all —
// never torn bytes — and come up in ok mode.
func TestKill9MidWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		cmd := exec.Command(os.Args[0], "-test.run", "TestKill9Worker$", "-test.v")
		cmd.Env = append(os.Environ(), "STORE_KILL9_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(5+round*7) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		s := Open(Options{Dir: dir})
		if st := s.Stats(); st.Mode != "ok" {
			t.Fatalf("round %d: reopen after kill -9: %+v", round, st)
		}
		// Every surviving entry must verify and decode to its canonical
		// payload (the content is derivable from the key's label).
		for i := 0; i < 64; i++ {
			label := fmt.Sprintf("kill9-%d", i)
			if v, ok := s.Get(key(label)); ok {
				if want := kill9Payload(label); !bytes.Equal(v, want) {
					t.Fatalf("round %d: entry %s served torn bytes", round, label)
				}
			}
		}
	}
}

// TestKill9Worker is the child side of TestKill9MidWrite: it writes
// entries in a tight loop until killed. Not a real test when run in the
// normal suite.
func TestKill9Worker(t *testing.T) {
	dir := os.Getenv("STORE_KILL9_DIR")
	if dir == "" {
		t.Skip("child-process helper for TestKill9MidWrite")
	}
	s := Open(Options{Dir: dir})
	for i := 0; ; i = (i + 1) % 64 {
		label := fmt.Sprintf("kill9-%d", i)
		s.Put(key(label), kill9Payload(label))
	}
}

// kill9Payload derives a deterministic multi-KB payload from a label, so
// parent and child agree on the expected bytes without a side channel.
func kill9Payload(label string) []byte {
	var out []byte
	seed := label
	for len(out) < 4096 {
		sum := sha256.Sum256([]byte(seed))
		out = append(out, sum[:]...)
		seed = hex.EncodeToString(sum[:8])
	}
	return out
}

// benchPayload is about the wire size of the 10x10 Table I plan, the
// middle of what the store holds.
const benchPayload = 70 << 10

// BenchmarkStorePut times Put of a new entry: the temp-file write, the
// mtime stamp, fsync and rename. The 64 MiB budget starts evicting
// after about 900 entries, as a full cache directory does.
func BenchmarkStorePut(b *testing.B) {
	s := Open(Options{Dir: b.TempDir(), CapBytes: 64 << 20})
	val := bytes.Repeat([]byte{'x'}, benchPayload)
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = key(fmt.Sprint("put-", i))
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i], val)
	}
	b.StopTimer()
	if st := s.Stats(); st.Mode != "ok" || st.Writes != b.N {
		b.Fatalf("stats after %d puts: %+v", b.N, st)
	}
}

// BenchmarkStoreGet times a verified Get hit: the file read, the header
// check and the SHA-256 of the payload, and the mtime touch.
func BenchmarkStoreGet(b *testing.B) {
	s := Open(Options{Dir: b.TempDir()})
	k := key("get")
	s.Put(k, bytes.Repeat([]byte{'x'}, benchPayload))
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, ok := s.Get(k); !ok || len(got) != benchPayload {
			b.Fatal("verified Get missed")
		}
	}
}
