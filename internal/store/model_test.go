package store

// The store against a reference model under seeded sequences of Put,
// Get and reopen, each step with at most one injected filesystem fault
// and a fake-clock advance. Run it as
//
//	go test -race -count 10 -run TestStoreModel ./internal/store
//
// Every invocation takes the next seed, so repeated runs cover new
// sequences; a failure names its seed and step.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The model's store budget and probe bounds. The fake clock moves in
// whole seconds, so entry mtimes keep their order on coarse filesystems.
const (
	modelCap        = 1200
	modelBackoffMin = 2 * time.Second
	modelBackoffMax = 8 * time.Second
	modelRounds     = 4
	modelLabels     = 12
)

var (
	modelOps    = []string{"put-new", "put-stored", "get", "reopen"}
	modelFaults = []Op{"", OpOpen, OpRead, OpCreateTemp, OpWrite, OpSync, OpRename,
		OpChtimes, OpMkdirAll, OpReadDir, OpStat}
	modelClocks = []string{"below", "past"}
)

// modelRuns numbers the invocations of TestStoreModel in this process;
// each one uses the next seed.
var modelRuns atomic.Uint64

// modelStep is one operation of a sequence: op runs with fault injected
// on every call of that FS operation, the fault heals, and the clock
// advances by tick.
type modelStep struct {
	op    string
	fault Op
	tick  time.Duration
	pick  int // chooses the key among the op's candidates
}

// modelSequence expands op × fault × clock step with nested loops in a
// fixed order, then shuffles modelRounds copies of the product with the
// seed. A "below" step advances the clock by 0 or 1 s, under the minimum
// backoff, so some entries share a stamp; "past" clears the longest one.
func modelSequence(seed uint64) []modelStep {
	rng := rand.New(rand.NewPCG(seed, 0x5707e))
	var seq []modelStep
	for range modelRounds {
		var round []modelStep
		for _, op := range modelOps {
			for _, fault := range modelFaults {
				for _, clock := range modelClocks {
					tick := modelBackoffMax + time.Second
					if clock == "below" {
						tick = time.Duration(rng.IntN(2)) * time.Second
					}
					round = append(round, modelStep{op, fault, tick, rng.IntN(1 << 30)})
				}
			}
		}
		rng.Shuffle(len(round), func(i, k int) { round[i], round[k] = round[k], round[i] })
		seq = append(seq, round...)
	}
	return seq
}

// modelValue is the only payload the sequence ever gives key(label i):
// the store is content-addressed. Sizes span 100 to 507 bytes, so a few
// entries fill the budget and Puts evict.
func modelValue(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 100+37*i)
}

// storeModel is the reference: the entry files with their mtimes, the
// store's recency list, its mode and its next probe time, and the
// counters Stats should report.
type storeModel struct {
	size     map[string]int64     // payload length by key
	disk     map[string]time.Time // entry files on disk and their mtimes
	lru      []string             // the store's index, most recently used first
	init     bool                 // the directory was read since the last Open
	degraded bool
	backoff  time.Duration
	next     time.Time
	st       Stats
}

// writeFaults fail an entry write (temp file, write, stamp, fsync,
// rename); loadFaults fail reading the directory; verifyFaults fail the
// open-time header check of every entry, which quarantines it.
var (
	writeFaults  = []Op{OpCreateTemp, OpWrite, OpChtimes, OpSync, OpRename}
	loadFaults   = []Op{OpMkdirAll, OpReadDir}
	verifyFaults = []Op{OpOpen, OpRead, OpStat}
)

func (m *storeModel) trip(now time.Time) {
	if m.degraded {
		m.backoff = min(2*m.backoff, modelBackoffMax)
	} else {
		m.degraded, m.backoff = true, modelBackoffMin
		m.st.Trips++
	}
	m.next = now.Add(m.backoff)
}

func (m *storeModel) has(key string) bool { return slices.Contains(m.lru, key) }

func (m *storeModel) toFront(key string) {
	i := slices.Index(m.lru, key)
	m.lru = slices.Insert(slices.Delete(m.lru, i, i+1), 0, key)
}

// open is a fresh Store over the directory: new counters, and the index
// rebuilt from disk unless the directory cannot be read.
func (m *storeModel) open(fault Op, now time.Time) {
	m.st, m.lru, m.init, m.degraded = Stats{}, nil, false, false
	if !m.load(fault) {
		m.trip(now)
	}
}

// load rebuilds the index from the entry files, least recent first by
// (mtime, name), so entries stamped at one instant reopen in name order.
func (m *storeModel) load(fault Op) bool {
	if slices.Contains(loadFaults, fault) {
		return false
	}
	if slices.Contains(verifyFaults, fault) {
		m.st.Quarantined += len(m.disk)
		clear(m.disk)
	}
	m.lru = m.lru[:0]
	for k := range m.disk {
		m.lru = append(m.lru, k)
	}
	slices.SortFunc(m.lru, func(a, b string) int {
		return cmp.Or(m.disk[b].Compare(m.disk[a]), strings.Compare(b, a))
	})
	m.init = true
	return true
}

// put: a degraded store skips until its probe falls due, and the due
// probe writes the entry whatever the key; a healthy store touches a
// stored key, and a failed touch moves the entry in memory but not on
// disk.
func (m *storeModel) put(key string, fault Op, now time.Time) {
	if m.degraded {
		if now.Before(m.next) {
			m.st.SkippedWrites++
			return
		}
		if !m.init && !m.load(fault) {
			m.trip(now)
			return
		}
	} else if m.has(key) {
		m.toFront(key)
		if fault == OpChtimes {
			m.st.WriteErrors++
			m.trip(now)
		} else {
			m.disk[key] = now
		}
		return
	}
	if slices.Contains(writeFaults, fault) {
		m.st.WriteErrors++
		m.trip(now)
		return
	}
	m.disk[key] = now
	if m.degraded {
		m.degraded = false
		m.st.Recoveries++
	}
	if m.has(key) {
		m.toFront(key)
		return
	}
	m.lru = slices.Insert(m.lru, 0, key)
	m.st.Writes++
	for m.bytes() > modelCap {
		victim := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		delete(m.disk, victim)
		m.st.Evictions++
	}
}

// get reports whether the store should serve key.
func (m *storeModel) get(key string, fault Op, now time.Time) bool {
	if m.degraded || !m.has(key) {
		m.st.Misses++
		return false
	}
	if fault == OpOpen || fault == OpRead {
		m.st.ReadErrors++
		m.trip(now)
		return false
	}
	m.st.Hits++
	m.toFront(key)
	if fault == OpChtimes {
		m.st.WriteErrors++
		m.trip(now)
	} else {
		m.disk[key] = now
	}
	return true
}

func (m *storeModel) bytes() int64 {
	var n int64
	for _, k := range m.lru {
		n += m.size[k]
	}
	return n
}

// want is the Stats the store should report.
func (m *storeModel) want() Stats {
	st := m.st
	st.Mode, st.Reason = "ok", ""
	if m.degraded {
		st.Mode = "degraded"
	}
	st.Entries, st.Bytes, st.CapBytes = len(m.lru), m.bytes(), modelCap
	return st
}

// recency lists the store's index from most to least recently used.
func (s *Store) recency() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.lru.All() {
		keys = append(keys, k)
	}
	return keys
}

// TestStoreModel runs one seeded sequence against a reference model and
// checks after every step:
//   - the store never serves bytes it was not given;
//   - a due probe is a write: after a heal, the first due probe of either
//     kind, new key or stored key, returns the store to ok;
//   - Bytes <= CapBytes, and the index is the model's LRU list, in order,
//     so a healthy reopen keeps every entry in recency order;
//   - Trips - Recoveries is 1 while degraded and 0 while ok;
//   - a Get of a valid key adds one to exactly one of Hits, Misses,
//     ReadErrors and Quarantined;
//   - every counter is the model's.
func TestStoreModel(t *testing.T) {
	seed := modelRuns.Add(1)
	dir := t.TempDir()
	clock := newFakeClock()
	ffs := &FaultFS{Base: OSFS()}
	opts := Options{Dir: dir, CapBytes: modelCap, FS: ffs, Now: clock.Now,
		BackoffMin: modelBackoffMin, BackoffMax: modelBackoffMax}
	labels := make([]string, modelLabels)
	m := &storeModel{size: make(map[string]int64), disk: make(map[string]time.Time)}
	for i := range labels {
		labels[i] = key(fmt.Sprint("model-", i))
		m.size[labels[i]] = int64(len(modelValue(i)))
	}
	value := func(k string) []byte { return modelValue(slices.Index(labels, k)) }
	s := Open(opts)
	m.open("", clock.Now())

	for i, step := range modelSequence(seed) {
		if step.fault != "" {
			ffs.SetHook(func(op Op, _ string) error {
				if op == step.fault {
					return errors.New("injected EIO")
				}
				return nil
			})
		}
		before, now := s.Stats(), clock.Now()
		dueProbe := m.degraded && !now.Before(m.next) && strings.HasPrefix(step.op, "put")
		var k string
		var got []byte
		var served, wantServed bool
		switch step.op {
		case "put-new", "put-stored":
			k = pickKey(step, labels, m)
			s.Put(k, value(k))
			m.put(k, step.fault, now)
		case "get":
			k = pickKey(step, labels, m)
			got, served = s.Get(k)
			wantServed = m.get(k, step.fault, now)
		case "reopen":
			s = Open(opts)
			m.open(step.fault, now)
		}
		ffs.SetHook(nil)
		clock.Advance(step.tick)

		where := fmt.Sprintf("seed %d: step %d (%s, fault %q)", seed, i, step.op, step.fault)
		st, want := s.Stats(), m.want()
		failed := false
		fail := func(format string, args ...any) {
			t.Errorf(where+": "+format, args...)
			failed = true
		}
		if dueProbe && (st.Mode != want.Mode || st.Recoveries != want.Recoveries || st.WriteErrors != want.WriteErrors) {
			fail("the due probe of key %s left the store %s with %d recoveries and %d write errors; want %s, %d and %d "+
				"(a due probe writes its entry whatever the key: after a heal it recovers the store)",
				k[:8], st.Mode, st.Recoveries, st.WriteErrors, want.Mode, want.Recoveries, want.WriteErrors)
		}
		if served && !bytes.Equal(got, value(k)) {
			fail("Get(%s) served %d bytes it was not given", k[:8], len(got))
		}
		if served != wantServed {
			fail("Get(%s) served = %v, want %v", k[:8], served, wantServed)
		}
		if d := st.Trips - st.Recoveries; (st.Mode == "degraded") != (d == 1) || d < 0 || d > 1 {
			fail("mode %s with Trips - Recoveries = %d", st.Mode, d)
		}
		if step.op == "get" {
			deltas := []int{st.Hits - before.Hits, st.Misses - before.Misses,
				st.ReadErrors - before.ReadErrors, st.Quarantined - before.Quarantined}
			if n := deltas[0] + deltas[1] + deltas[2] + deltas[3]; n != 1 || slices.Min(deltas) < 0 {
				fail("Get moved Hits, Misses, ReadErrors, Quarantined by %v; want one of them by 1", deltas)
			}
		}
		if st.Bytes > st.CapBytes {
			fail("Bytes %d over CapBytes %d", st.Bytes, st.CapBytes)
		}
		if idx := s.recency(); !slices.Equal(idx, m.lru) {
			fail("index %v, want the model's LRU list %v", short(idx), short(m.lru))
		}
		st.Reason = ""
		if st != want {
			fail("stats %+v\nwant  %+v", st, want)
		}
		if failed {
			t.FailNow()
		}
	}
}

// pickKey chooses a step's key: for "put-new" one the store holds neither
// in its index nor on disk, for "put-stored" one in its index (or, before
// the directory is read, on disk), falling back to a new key when there
// is none; for "get" any key, the indexed ones twice as likely.
func pickKey(step modelStep, labels []string, m *storeModel) string {
	if step.op == "get" {
		keys := append(slices.Clone(m.lru), labels...)
		return keys[step.pick%len(keys)]
	}
	var stored, fresh []string
	for _, k := range labels {
		if _, onDisk := m.disk[k]; m.has(k) || (!m.init && onDisk) {
			stored = append(stored, k)
		} else if !onDisk {
			fresh = append(fresh, k)
		}
	}
	if step.op == "put-stored" && len(stored) > 0 {
		return stored[step.pick%len(stored)]
	}
	return fresh[step.pick%len(fresh)]
}

// short abbreviates keys for failure messages.
func short(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k[:8]
	}
	return out
}
