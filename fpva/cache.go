package fpva

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cutset"
	"repro/internal/diagnose"
	"repro/internal/flowpath"
	"repro/internal/grid"
	"repro/internal/sim"
)

// DefaultCacheBytes is the plan-cache byte budget of a service built
// without WithCacheBytes.
const DefaultCacheBytes = 64 << 20

// generatorVersion names the generator's output in every plan key. A
// change that moves any generated vector bumps it, so plans an older
// generator left in a durable store stop matching.
const generatorVersion = 2

// planKey derives the canonical cache key of a (array, generation config)
// pair: the SHA-256 of the array's text and ports in attachment order
// (appendArray), the generator and codec versions, and every option that
// can change the generated vectors. Worker counts and progress callbacks
// are deliberately excluded — results are bit-identical across worker
// counts, so they must share a cache entry.
func planKey(a *Array, cfg genConfig) string {
	h := sha256.New()
	h.Write(appendArray(nil, grid.Marshal(a.g), a.g))
	fmt.Fprintf(h, "\x00direct=%t block=%d skipLeak=%t path=%d cut=%d v=%d gen=%d",
		cfg.direct, cfg.blockSize, cfg.skipLeak,
		int(cfg.pathEngine), int(cfg.cutEngine), CodecVersion, generatorVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// appendArray packs an array's text and then its ports in attachment
// order, each with its source flag: the simulator reads its sinks in that
// order, and the text does not carry it.
func appendArray(b []byte, text string, g *grid.Array) []byte {
	b = append(b, text...)
	b = binary.AppendUvarint(b, uint64(len(g.Ports())))
	for _, pt := range g.Ports() {
		b = strconv.AppendBool(binary.AppendUvarint(b, uint64(pt.Valve)), pt.Source)
	}
	return b
}

// cacheEntry is one cached plan, held once, as its v1 wire encoding: the
// exact bytes fpvad serves from /plan, encoded once when the solve
// finished. Beside them it keeps the progress events the solve emitted,
// replayed on every hit so cached and cold callers observe the same
// sequence, and, for a plan solved in this process, the path and cut
// geometry the wire format does not carry. A hit serves the bytes as they
// are; Job.Plan decodes them onto the caller's array on first use. The
// plan cache charges an entry its wire length, so the byte budget
// measures real payload, not Go object overhead.
type cacheEntry struct {
	wire   []byte
	events []Event
	geom   *geometry // nil for store read-backs and subprocess solves
}

// geometry is the path and cut geometry of a plan solved in this process,
// shared read-only by every plan decoded from the same entry.
type geometry struct {
	paths []*flowpath.Path
	cuts  []*cutset.Cut
}

// maxCompiledArtifacts bounds the service's compiled cache. An entry
// costs one artifact for its compiled vectors plus one per signature
// table; entries, not bytes, are the unit because the dominant cost is
// the compile, not the RAM.
const maxCompiledArtifacts = 16

// compiled is the compiled state of one plan content, shared by every
// campaign, verify and diagnose run against that content: the vector set
// bound to its simulator, and one diagnosis signature table per candidate
// universe, added under mu on first use. Each is immutable once built.
type compiled struct {
	key string // compiledKey of the content; "" for a plan's own entry
	cv  *sim.CompiledVectors

	mu   sync.Mutex
	sigs map[universe]*diagnose.Signatures
}

func compilePlan(p *Plan, key string) (*compiled, error) {
	cv, err := p.ts.Compile()
	if err != nil {
		return nil, err
	}
	return &compiled{key: key, cv: cv, sigs: make(map[universe]*diagnose.Signatures)}, nil
}

// cost is the number of artifacts the entry holds.
func (e *compiled) cost() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(1 + len(e.sigs))
}

// compiledKey is the content address of a plan's compiled state: the
// SHA-256 of one buffer packing everything the compile and the signature
// tables read. That is the array text and ports (appendArray), every
// vector's open states as bits in plan order, and the leak pairs. Vector
// names and kinds, timings and worker counts change no compiled artifact
// and are left out, so a generated plan and its decoded copy share a key
// whenever their ports are in scan order.
func compiledKey(p *Plan) string {
	g, ts := p.a.g, p.ts
	nv, vecs := g.NumValves(), ts.AllVectors()
	text := grid.Marshal(g)
	b := make([]byte, 0, len(text)+8*len(g.Ports())+len(vecs)*(nv+7)/8+8*len(ts.LeakPairs)+16)
	b = appendArray(b, text, g)
	b = binary.AppendUvarint(b, uint64(len(vecs)))
	for _, v := range vecs {
		n := len(b)
		b = append(b, make([]byte, (nv+7)/8)...)
		for id := 0; id < nv; id++ {
			if v.Open(grid.ValveID(id)) {
				b[n+id/8] |= 1 << (id % 8)
			}
		}
	}
	for _, lp := range ts.LeakPairs {
		b = binary.AppendUvarint(b, uint64(lp[0]))
		b = binary.AppendUvarint(b, uint64(lp[1]))
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// lru is a cost-weighted least-recently-used map: put evicts from the
// cold end until the total cost fits the budget, and a value dearer than
// the whole budget is not kept. The service keeps two: plans charged by
// wire length, and compiled entries charged by artifacts held. It is not
// goroutine-safe; the owning Service serializes access under its mutex.
type lru[V any] struct {
	capCost, cost int64
	ll            list.List // front = most recently used; values are *lruItem[V]
	index         map[string]*list.Element
}

type lruItem[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](capCost int64) *lru[V] {
	return &lru[V]{capCost: capCost, index: make(map[string]*list.Element)}
}

// get returns the value under key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put stores v under key at the given cost, replacing any value there,
// and evicts least recently used values until the budget holds.
func (c *lru[V]) put(key string, v V, cost int64) {
	if el, ok := c.index[key]; ok {
		c.remove(el)
	}
	if cost > c.capCost {
		return
	}
	c.index[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v, cost: cost})
	c.cost += cost
	for c.cost > c.capCost {
		c.remove(c.ll.Back())
	}
}

func (c *lru[V]) remove(el *list.Element) {
	it := c.ll.Remove(el).(*lruItem[V])
	delete(c.index, it.key)
	c.cost -= it.cost
}
