package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// entryFormat / entryVersion stamp every entry header; a future layout
// change bumps the version and old entries are quarantined, not
// misread.
const (
	entryFormat  = "fpva.store"
	entryVersion = 1
)

// Default degraded-mode probe backoff bounds (see Options).
const (
	DefaultBackoffMin = 1 * time.Second
	DefaultBackoffMax = 2 * time.Minute
)

// maxHeaderBytes bounds the JSON header line of an entry file.
const maxHeaderBytes = 4096

// Options configures Open. Dir is required; everything else has a
// default. FS and Now exist for fault-injection and clock-control in
// tests.
type Options struct {
	// Dir is the store's root directory, created if absent.
	Dir string
	// CapBytes is the LRU byte budget over payload bytes (<= 0 means
	// unlimited). A payload larger than the whole budget is not stored.
	CapBytes int64
	// FS overrides the filesystem (default OSFS()).
	FS FS
	// Now overrides the clock (default time.Now). It times the probe
	// backoff and stamps the entry mtimes that record recency.
	Now func() time.Time
	// BackoffMin / BackoffMax bound the degraded-mode re-probe interval
	// (defaults DefaultBackoffMin / DefaultBackoffMax). The interval
	// starts at the minimum and doubles on every failed probe.
	BackoffMin, BackoffMax time.Duration
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Mode is "ok" or "degraded"; Reason names the error that tripped a
	// degraded store ("" otherwise).
	Mode   string
	Reason string

	// Entries / Bytes / CapBytes describe current occupancy (payload
	// bytes, excluding headers).
	Entries  int
	Bytes    int64
	CapBytes int64

	// Hits / Misses count Get outcomes (a degraded Get is a miss).
	Hits   int
	Misses int

	// Writes counts new entries durably stored (a probe that rewrites a
	// stored key, like a concurrent Put of the same key, adds none);
	// WriteErrors counts failed writes and touches (each trips degraded
	// mode); SkippedWrites counts Puts dropped while degraded between
	// probes.
	Writes        int
	WriteErrors   int
	SkippedWrites int

	// ReadErrors counts I/O failures reading an entry (these trip
	// degraded mode); Quarantined counts torn or corrupt entries moved
	// aside; Evictions counts LRU byte-budget evictions.
	ReadErrors  int
	Quarantined int
	Evictions   int

	// Trips / Recoveries count transitions into and out of degraded
	// memory-only mode.
	Trips      int
	Recoveries int
}

// header is the first line of every entry file.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Key     string `json:"key"`
	Len     int64  `json:"len"`
	SHA256  string `json:"sha256"`
}

// errCorrupt classifies verification failures (torn write, bit flip,
// wrong key) as distinct from live I/O errors: corruption quarantines
// the entry, an I/O error trips degraded mode.
var errCorrupt = errors.New("store: corrupt entry")

// Store is an on-disk content-addressed byte cache with an LRU byte
// budget. It is safe for concurrent use. See the package comment for
// the layout and crash-safety contract.
type Store struct {
	dir        string
	fs         FS
	now        func() time.Time
	backoffMin time.Duration
	backoffMax time.Duration

	mu sync.Mutex
	// lru indexes the entry files by key, charged their payload bytes. A
	// Get pins its entry, so eviction cannot unlink a file being read.
	lru  *lru.Cache[struct{}]
	init bool // the directory was read; only a degraded store's probe checks
	qseq int  // quarantine filename suffix, for repeat offenders

	degraded  bool
	reason    string
	backoff   time.Duration
	nextProbe time.Time

	st Stats // counters only; occupancy and mode are filled by Stats()
}

// Open opens (or creates) the store rooted at o.Dir. Open never fails:
// if the directory cannot be prepared — unreachable disk, permission
// trouble — the store comes up in degraded memory-only mode, reports
// why through Stats, and re-probes with backoff as writes arrive, so a
// daemon with a sick cache disk still boots and serves.
func Open(o Options) *Store {
	s := &Store{
		dir:        o.Dir,
		fs:         o.FS,
		now:        o.Now,
		backoffMin: o.BackoffMin,
		backoffMax: o.BackoffMax,
		lru:        lru.New[struct{}](o.CapBytes),
	}
	if s.fs == nil {
		s.fs = OSFS()
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.backoffMin <= 0 {
		s.backoffMin = DefaultBackoffMin
	}
	if s.backoffMax < s.backoffMin {
		s.backoffMax = DefaultBackoffMax
	}
	s.mu.Lock()
	if err := s.initLocked(); err != nil {
		s.tripLocked("open", err)
	}
	s.mu.Unlock()
	return s
}

// Get returns the payload stored under key. A missing, degraded,
// corrupt or unreadable entry is a miss — the store never serves bytes
// that fail verification, and a degraded store does no disk I/O at all.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	s.mu.Lock()
	var unpin func()
	ok := !s.degraded // a degraded store does no disk I/O
	if ok {
		unpin, ok = s.lru.Pin(key) // hold the file in place while we read it
	}
	if !ok {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	payload, err := s.readEntry(key)
	var terr error
	if err == nil {
		terr = s.touch(key)
	}

	s.mu.Lock()
	unpin()
	if err != nil {
		if errors.Is(err, errCorrupt) {
			s.quarantineLocked(key)
		} else {
			s.st.ReadErrors++
			s.tripLocked("read "+key, err)
		}
		s.mu.Unlock()
		return nil, false
	}
	s.st.Hits++
	s.lru.Get(key) // most recently used, unless a racing reader quarantined it
	s.touchedLocked(key, terr)
	s.mu.Unlock()
	return payload, true
}

// Put stores val under key if absent, and touches the entry if not. The
// write is atomic (temp file, fsync, rename), so a crash at any instant
// leaves either the complete entry or debris in tmp/ that the next Open
// clears. Errors do not surface to the caller: a failed write or touch
// trips degraded mode and the store becomes a fast no-op until a backoff
// probe succeeds. The probe is the write of a due Put, whatever its key:
// the bytes are content-addressed, so rewriting a stored key replaces the
// file with its twin.
func (s *Store) Put(key string, val []byte) {
	if !validKey(key) || len(val) == 0 {
		return
	}
	if c := s.lru.Cap(); c > 0 && int64(len(val)) > c {
		return
	}
	s.mu.Lock()
	if s.degraded {
		if s.now().Before(s.nextProbe) {
			s.st.SkippedWrites++
			s.mu.Unlock()
			return
		}
		// This write is the probe. If the directory never came up, read it
		// first.
		if !s.init {
			if err := s.initLocked(); err != nil {
				s.tripLocked("open", err)
				s.mu.Unlock()
				return
			}
		}
	} else if unpin, ok := s.lru.Pin(key); ok {
		s.lru.Get(key)
		s.mu.Unlock()
		err := s.touch(key)
		s.mu.Lock()
		unpin()
		s.touchedLocked(key, err)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	err := s.writeEntry(key, val)

	s.mu.Lock()
	if err != nil {
		s.st.WriteErrors++
		s.tripLocked("write "+key, err)
		s.mu.Unlock()
		return
	}
	if s.degraded { // the probe succeeded
		s.degraded = false
		s.st.Recoveries++
	}
	if _, ok := s.lru.Get(key); ok {
		// The probe rewrote a stored key, or a concurrent Put of the same
		// key beat us: both wrote identical bytes (content addressing).
		s.mu.Unlock()
		return
	}
	victims := s.lru.Put(key, struct{}{}, int64(len(val)))
	s.st.Writes++
	s.st.Evictions += len(victims)
	s.mu.Unlock()
	for _, k := range victims {
		s.fs.Remove(s.planPath(k))
	}
}

// Stats returns a snapshot of the store's counters and mode.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Entries = s.lru.Len()
	st.Bytes = s.lru.Cost()
	st.CapBytes = s.lru.Cap()
	if s.degraded {
		st.Mode = "degraded"
		st.Reason = s.reason
	} else {
		st.Mode = "ok"
	}
	return st
}

// ---- paths and keys ----

func (s *Store) plansDir() string      { return filepath.Join(s.dir, "plans") }
func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }
func (s *Store) planPath(key string) string {
	return filepath.Join(s.plansDir(), key+".plan")
}

// validKey accepts lowercase-hex digests (planKey emits 64 hex chars).
// Anything else — in particular anything that could traverse paths —
// is rejected outright.
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---- degraded mode ----

// tripLocked switches the store into (or keeps it in) degraded
// memory-only mode: reason recorded, probe scheduled with doubling
// backoff.
func (s *Store) tripLocked(op string, err error) {
	if s.degraded {
		s.backoff *= 2
		if s.backoff > s.backoffMax {
			s.backoff = s.backoffMax
		}
	} else {
		s.degraded = true
		s.backoff = s.backoffMin
		s.st.Trips++
	}
	s.reason = op + ": " + err.Error()
	s.nextProbe = s.now().Add(s.backoff)
}

// ---- entry I/O ----

// writeEntry stages header+payload in tmp/, stamps its mtime, fsyncs,
// and renames into place. Any failure removes the temp file and reports
// the error; the caller decides whether that trips degraded mode.
func (s *Store) writeEntry(key string, val []byte) error {
	f, err := s.fs.CreateTemp(s.tmpDir(), key+".*")
	if err != nil {
		return err
	}
	tmpPath := f.Name()
	sum := sha256.Sum256(val)
	hdr, err := json.Marshal(header{
		Format: entryFormat, Version: entryVersion,
		Key: key, Len: int64(len(val)), SHA256: hex.EncodeToString(sum[:]),
	})
	if err == nil {
		_, err = f.Write(append(hdr, '\n'))
	}
	if err == nil {
		_, err = f.Write(val)
	}
	if err == nil {
		now := s.now()
		err = s.fs.Chtimes(tmpPath, now, now)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmpPath, s.planPath(key))
	}
	if err != nil {
		s.fs.Remove(tmpPath)
	}
	return err
}

// touch stamps a stored entry's file with the current time, the store's
// only record of recency. The caller holds a pin on the entry, so
// eviction cannot unlink the file, and does not hold s.mu. The stamp is
// not fsynced: a crash can lose recent recency, never an entry.
func (s *Store) touch(key string) error {
	now := s.now()
	return s.fs.Chtimes(s.planPath(key), now, now)
}

// touchedLocked trips degraded mode on a failed touch, as on a failed
// write: it is the cheapest early warning of a sick disk.
func (s *Store) touchedLocked(key string, err error) {
	if err != nil {
		s.st.WriteErrors++
		s.tripLocked("touch "+key, err)
	}
}

// readEntry reads and verifies one entry. Verification failures return
// errCorrupt; everything else is a live I/O error.
func (s *Store) readEntry(key string) ([]byte, error) {
	f, err := s.fs.Open(s.planPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s: file missing", errCorrupt, key)
		}
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return verifyEntry(key, b)
}

// parseHeader checks the header line at the front of an entry's bytes,
// the whole file or its first maxHeaderBytes, and returns it with the
// payload's offset. The line, newline included, fits in maxHeaderBytes.
func parseHeader(key string, b []byte) (header, int, error) {
	var h header
	idx := bytes.IndexByte(b[:min(len(b), maxHeaderBytes)], '\n')
	if idx < 0 {
		return h, 0, fmt.Errorf("%w: %s: no header line", errCorrupt, key)
	}
	if err := json.Unmarshal(b[:idx], &h); err != nil {
		return h, 0, fmt.Errorf("%w: %s: bad header: %v", errCorrupt, key, err)
	}
	if h.Format != entryFormat || h.Version != entryVersion || h.Key != key || h.Len <= 0 {
		return h, 0, fmt.Errorf("%w: %s: header mismatch", errCorrupt, key)
	}
	return h, idx + 1, nil
}

// verifyEntry checks the header line, length, and SHA-256 of one
// entry's raw bytes, returning the payload.
func verifyEntry(key string, b []byte) ([]byte, error) {
	h, off, err := parseHeader(key, b)
	if err != nil {
		return nil, err
	}
	payload := b[off:]
	if int64(len(payload)) != h.Len {
		return nil, fmt.Errorf("%w: %s: truncated: have %d bytes, header says %d",
			errCorrupt, key, len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", errCorrupt, key)
	}
	return payload, nil
}

// quarantineLocked moves a torn or corrupt entry out of the live set
// and into quarantine/ for postmortems (falling back to deletion, then
// to simply forgetting it, if the disk won't cooperate).
func (s *Store) quarantineLocked(key string) {
	s.lru.Remove(key)
	s.st.Quarantined++
	s.qseq++
	dst := filepath.Join(s.quarantineDir(), key+".plan."+strconv.Itoa(s.qseq))
	if err := s.fs.Rename(s.planPath(key), dst); err != nil {
		s.fs.Remove(s.planPath(key))
	}
}

// ---- open-time recovery ----

// initLocked fills the empty index from disk: directories ensured,
// crash debris in tmp/ and an older build's journal removed, every
// entry's header verified (torn entries quarantined), the LRU order
// rebuilt from the entries' mtimes, and the byte budget re-enforced.
func (s *Store) initLocked() error {
	for _, d := range []string{s.dir, s.plansDir(), s.tmpDir(), s.quarantineDir()} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	// Crash debris: temp files never renamed into place.
	if ents, err := s.fs.ReadDir(s.tmpDir()); err == nil {
		for _, de := range ents {
			s.fs.Remove(filepath.Join(s.tmpDir(), de.Name()))
		}
	}
	// Older builds kept the LRU order in an append-only journal.
	s.fs.Remove(filepath.Join(s.dir, "journal"))

	ents, err := s.fs.ReadDir(s.plansDir())
	if err != nil {
		return err
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var live []found
	for _, de := range ents {
		key, ok := strings.CutSuffix(de.Name(), ".plan")
		if !ok || !validKey(key) {
			continue
		}
		size, mtime, verr := s.verifyEntryHeader(key)
		if verr != nil {
			// Torn or foreign: out of the live set, into quarantine.
			s.quarantineLocked(key)
			continue
		}
		live = append(live, found{key, size, mtime})
	}
	// Least recently used first, so the newest ends up at the front.
	slices.SortFunc(live, func(a, b found) int {
		return cmp.Or(a.mtime.Compare(b.mtime), strings.Compare(a.key, b.key))
	})
	var victims []string
	for _, f := range live {
		victims = append(victims, s.lru.Put(f.key, struct{}{}, f.size)...)
	}
	s.st.Evictions += len(victims)
	for _, k := range victims {
		s.fs.Remove(s.planPath(k))
	}
	s.init = true
	return nil
}

// verifyEntryHeader checks an entry's header line and on-disk size
// without hashing the payload (the cheap open-time pass; the full
// checksum runs on every Get). It returns the payload length and the
// file's mtime, the entry's last use.
func (s *Store) verifyEntryHeader(key string) (int64, time.Time, error) {
	f, err := s.fs.Open(s.planPath(key))
	if err != nil {
		return 0, time.Time{}, err
	}
	defer f.Close()
	head := make([]byte, maxHeaderBytes)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, time.Time{}, err
	}
	h, off, err := parseHeader(key, head[:n])
	if err != nil {
		return 0, time.Time{}, err
	}
	fi, err := s.fs.Stat(s.planPath(key))
	if err != nil {
		return 0, time.Time{}, err
	}
	if fi.Size() != int64(off)+h.Len {
		return 0, time.Time{}, fmt.Errorf("%w: %s: truncated: file is %d bytes, want %d",
			errCorrupt, key, fi.Size(), int64(off)+h.Len)
	}
	return h.Len, fi.ModTime(), nil
}
