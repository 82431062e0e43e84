package main

// The four workloads and their request streams. Every stream is a pure
// function of (workload, seed): the same seed sends byte-identical
// request bodies in the same order, and the daemon receives nothing but
// these requests.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// cacheDirToken in a workload's daemon flags is replaced by a fresh cache
// directory for every daemon the benchmark boots.
const cacheDirToken = "<cache-dir>"

// workload is one traffic mix: the daemon flags it needs and the stream
// that generates its requests.
type workload struct {
	name  string
	why   string
	flags []string
	// newStream builds the request stream for a seed. Building may solve
	// arrays in-process (exact-ilp validates its variants), so it runs
	// once per run, before set-up.
	newStream func(seed uint64) (stream, error)
}

var workloads = []workload{
	{
		name:      "generate-cold",
		why:       "every request generates a new 8x8-15x15 array: a cache miss plus a store write, so core generation, plan encoding and store Put carry the load",
		flags:     []string{"-cache-dir", cacheDirToken},
		newStream: func(seed uint64) (stream, error) { return newColdStream(seed, "generate-cold"), nil },
	},
	{
		name:      "generate-warm",
		why:       "72 arrays solved in set-up, then picked at random under a 2 MiB memory cache: memory hits and store read-backs (Get + DecodePlan), no solves",
		flags:     []string{"-cache-dir", cacheDirToken, "-cache-mb", "2"},
		newStream: newWarmStream,
	},
	{
		name:      "test-floor",
		why:       "campaign, verify and diagnose jobs on uploaded Table I plans: the paper's Sec. IV path through plan decode, the fault simulator and the diagnosis engine",
		newStream: newFloorStream,
	},
	{
		name:      "exact-ilp",
		why:       "the paper's ILP engines on 16 4x4 arrays with the cache off: every request solves and none coalesce, so LP and branch-and-bound carry the load",
		flags:     []string{"-cache-mb", "0"},
		newStream: func(seed uint64) (stream, error) { return newILPStream(seed, numClients) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated job: its POST /v1/jobs body plus what the
// output checks need to judge the answer.
type request struct {
	kind string
	body []byte
	// key indexes the request's array or plan within its workload: the
	// preload on generate-warm, the variant on exact-ilp, the Table I plan
	// on test-floor.
	key int
	// exactILP marks generate requests on the ILP engines, whose plans
	// must report every solve optimal.
	exactILP bool
	// hidden is the stuck-at fault a diagnose request's readings were
	// simulated under.
	hidden fpva.Fault
}

// stream hands out a workload's requests. client selects the client's
// share of the variants on exact-ilp; the other streams are shared by all
// clients. Safe for concurrent use.
type stream interface {
	next(client int) (request, error)
}

// cartesianProduct expands a dimension grid into every combination,
// keys in sorted order and each key's values in the order given, so the
// i-th combination is the same on every run.
func cartesianProduct(dims map[string][]string) []map[string]string {
	keys := make([]string, 0, len(dims))
	for k := range dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []map[string]string{{}}
	for _, k := range keys {
		next := make([]map[string]string, 0, len(out)*len(dims[k]))
		for _, combo := range out {
			for _, v := range dims[k] {
				c := make(map[string]string, len(combo)+1)
				for ck, cv := range combo {
					c[ck] = cv
				}
				c[k] = v
				next = append(next, c)
			}
		}
		out = next
	}
	return out
}

// cycle hands out the indices 0..n-1 forever. Each pass is a fresh seeded
// permutation, so k passes draw every index k times whatever the seed,
// and only the order changes with it.
type cycle struct {
	n    int
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycle(n int, rng *rand.Rand) *cycle { return &cycle{n: n, rng: rng} }

func (c *cycle) next() int {
	if c.pos == len(c.perm) {
		c.perm = c.rng.Perm(c.n)
		c.pos = 0
	}
	c.pos++
	return c.perm[c.pos-1]
}

// gridCycle hands out grid combinations forever, each pass over the grid
// in a fresh seeded order, so only the order and the seeded details
// within a combination change with the seed.
type gridCycle struct {
	grid  []map[string]string
	order *cycle
}

func newGridCycle(dims map[string][]string, rng *rand.Rand) *gridCycle {
	grid := cartesianProduct(dims)
	return &gridCycle{grid: grid, order: newCycle(len(grid), rng)}
}

func (g *gridCycle) next() map[string]string { return g.grid[g.order.next()] }

// newRand derives an independent generator for one purpose of one run.
func newRand(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

func numbers(lo, hi int) []string {
	var out []string
	for v := lo; v <= hi; v++ {
		out = append(out, strconv.Itoa(v))
	}
	return out
}

func atoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		panic(fmt.Sprintf("fpvaload: grid value %q is not a number", s))
	}
	return v
}

// layoutRules bound where layoutArray may put channels and obstacles.
type layoutRules struct {
	border      int  // cells kept free along the array border
	obstacleGap int  // Chebyshev distance an obstacle keeps from earlier placements
	channelGap  int  // Chebyshev distance a channel cell keeps from earlier placements
	maxLen      int  // longest channel, in edges
	vertical    bool // channels may run vertically
	// disjoint keeps the column span of a horizontal channel one column
	// away from other channels and from obstacles, so no column cut has
	// to detour around two of them.
	disjoint bool
}

// wideRules keep obstacles off the border and two free cells apart, and
// channels horizontal, one free cell from everything else and in columns
// of their own. The straight-line cuts then cover every valve of nearly
// every 8x8-15x15 array; the rare plan that misses one declares it
// uncovered (see undeclared in check.go).
var wideRules = layoutRules{border: 1, obstacleGap: 2, channelGap: 1, maxLen: 3, disjoint: true}

// smallRules pack a 4x4 array; newILPStream keeps only the variants whose
// plans keep the guarantee.
var smallRules = layoutRules{border: 0, obstacleGap: 1, channelGap: 0, maxLen: 2, vertical: true}

// layoutArray places channels and obstacles on a size x size array with
// the standard corner ports.
func layoutArray(rng *rand.Rand, rules layoutRules, size, channels, obstacles int) (*fpva.Array, error) {
	var taken, spans [][2]int
	near := func(r, c, gap int) bool {
		for _, t := range taken {
			if max(abs(t[0]-r), abs(t[1]-c)) <= gap {
				return true
			}
		}
		return false
	}
	const tries = 64
	var opts []fpva.ArrayOption
	lo, hi := rules.border, size-1-rules.border
	for i := 0; i < obstacles; i++ {
		placed := false
		for try := 0; try < tries && !placed; try++ {
			r, c := lo+rng.IntN(hi-lo+1), lo+rng.IntN(hi-lo+1)
			if (r == 0 && c == 0) || (r == size-1 && c == size-1) || near(r, c, rules.obstacleGap) {
				continue
			}
			taken = append(taken, [2]int{r, c})
			if rules.disjoint {
				spans = append(spans, [2]int{c, c})
			}
			opts = append(opts, fpva.WithObstacle(r, c))
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("no room for obstacle %d on a %dx%d array", i+1, size, size)
		}
	}
	for i := 0; i < channels; i++ {
		placed := false
		for try := 0; try < tries && !placed; try++ {
			n := 1 + rng.IntN(min(rules.maxLen, hi-lo))
			horizontal := !rules.vertical || rng.IntN(2) == 0
			fixed, start := lo+rng.IntN(hi-lo+1), lo+rng.IntN(hi-lo-n+1)
			cells := make([][2]int, 0, n+1)
			for k := start; k <= start+n; k++ {
				if horizontal {
					cells = append(cells, [2]int{fixed, k})
				} else {
					cells = append(cells, [2]int{k, fixed})
				}
			}
			free := !(horizontal && rules.disjoint && crosses(spans, start, start+n))
			for _, cell := range cells {
				if near(cell[0], cell[1], rules.channelGap) {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			taken = append(taken, cells...)
			if horizontal {
				spans = append(spans, [2]int{start, start + n})
				opts = append(opts, fpva.WithChannelH(fixed, start, start+n))
			} else {
				opts = append(opts, fpva.WithChannelV(fixed, start, start+n))
			}
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("no room for channel %d on a %dx%d array", i+1, size, size)
		}
	}
	return fpva.NewArray(size, size, opts...)
}

// crosses reports whether columns c0..c1, widened by one on each side,
// meet any of the spans.
func crosses(spans [][2]int, c0, c1 int) bool {
	for _, sp := range spans {
		if c0-1 <= sp[1] && sp[0] <= c1+1 {
			return true
		}
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// compactJSON renders v with enc and compacts it, so it can be spliced
// into a request body without re-encoding.
func compactJSON(enc func(*bytes.Buffer) error) ([]byte, error) {
	var buf, out bytes.Buffer
	if err := enc(&buf); err != nil {
		return nil, err
	}
	if err := json.Compact(&out, buf.Bytes()); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// nsField matches the wall-clock fields of the wire formats (tp_ns,
// solver_wall_ns, ...): measurements, not content.
var nsField = regexp.MustCompile(`("[a-z_]+_ns":\s*)\d+`)

// zeroNS sets every *_ns field to 0, so two encodings of the same content
// compare equal byte for byte.
func zeroNS(b []byte) []byte { return nsField.ReplaceAll(b, []byte("${1}0")) }

// submitBody splices a compact wire payload into a POST /v1/jobs body.
// Building it by hand keeps a 229 KB plan from being re-scanned by the
// JSON encoder on every request.
func submitBody(kind, payloadField string, payload []byte, paramsField string, params any) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"kind":%q,%q:`, kind, payloadField)
	b.Write(payload)
	if params != nil {
		p, err := json.Marshal(params)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, `,%q:`, paramsField)
		b.Write(p)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// arrayDims is the array grid of the generate workloads: 8x8 to 15x15
// with 0-2 transportation channels and 0-2 obstacles, 72 combinations.
var arrayDims = map[string][]string{
	"channels":  numbers(0, 2),
	"obstacles": numbers(0, 2),
	"size":      numbers(8, 15),
}

// arrayStream draws arrays from a grid and never repeats one: a layout
// whose wire bytes were already sent is redrawn, and a combination that
// keeps repeating (a bare array has one layout per size) yields its turn
// to the next.
type arrayStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cycle *gridCycle
	rules layoutRules
	seen  map[[sha256.Size]byte]bool
}

func newArrayStream(seed uint64, purpose string, dims map[string][]string, rules layoutRules) *arrayStream {
	rng := newRand(seed, purpose)
	return &arrayStream{rng: rng, cycle: newGridCycle(dims, rng), rules: rules, seen: make(map[[sha256.Size]byte]bool)}
}

// reserve keeps the stream from drawing an array that was sent elsewhere.
func (s *arrayStream) reserve(wire []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[sha256.Sum256(wire)] = true
}

// nextArray returns a new array and its compact wire bytes.
func (s *arrayStream) nextArray() (*fpva.Array, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for turn := 0; turn < 10*len(s.cycle.grid); turn++ {
		c := s.cycle.next()
		for try := 0; try < 8; try++ {
			a, err := layoutArray(s.rng, s.rules, atoi(c["size"]), atoi(c["channels"]), atoi(c["obstacles"]))
			if err != nil {
				continue
			}
			wire, err := compactJSON(func(b *bytes.Buffer) error { return fpva.EncodeArray(b, a) })
			if err != nil {
				return nil, nil, err
			}
			h := sha256.Sum256(wire)
			if s.seen[h] {
				continue
			}
			s.seen[h] = true
			return a, wire, nil
		}
	}
	return nil, nil, fmt.Errorf("array grid exhausted after %d arrays", len(s.seen))
}

// coldStream is generate-cold: a new array per request, default engines.
type coldStream struct{ arrays *arrayStream }

func newColdStream(seed uint64, purpose string) *coldStream {
	return &coldStream{arrays: newArrayStream(seed, purpose, arrayDims, wideRules)}
}

func (s *coldStream) next(int) (request, error) {
	_, wire, err := s.arrays.nextArray()
	if err != nil {
		return request{}, err
	}
	body, err := submitBody("generate", "array", wire, "", nil)
	return request{kind: "generate", body: body}, err
}

// warmArrays is how many arrays generate-warm solves during set-up: one
// pass over the generate-cold grid, so every seed preloads the same mix of
// sizes, channels and obstacles.
var warmArrays = len(cartesianProduct(arrayDims))

// warmArraySeed draws the generate-warm arrays. It is fixed, so every
// -seed preloads the same arrays and only the picks change with it: a
// memory hit costs a fiftieth of a store read-back, and which plans fit
// in the 2 MiB cache depends on their layouts, so arrays drawn afresh per
// seed moved jobs_per_s by up to 20% between seeds on a steady host.
const warmArraySeed = 1

// warmStream is generate-warm: warmArrays arrays from the generate-cold
// grid, each request one of them picked uniformly.
type warmStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	arrays []request
}

func newWarmStream(seed uint64) (stream, error) {
	cold := newColdStream(warmArraySeed, "generate-warm/arrays")
	s := &warmStream{rng: newRand(seed, "generate-warm/picks")}
	for i := 0; i < warmArrays; i++ {
		req, err := cold.next(0)
		if err != nil {
			return nil, err
		}
		req.key = i
		s.arrays = append(s.arrays, req)
	}
	return s, nil
}

func (s *warmStream) next(int) (request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrays[s.rng.IntN(len(s.arrays))], nil
}

// floorPlan is one Table I plan as test-floor uploads it.
type floorPlan struct {
	name string
	// wire is the compact v1 encoding with its timing fields zeroed, so
	// request bodies do not depend on how fast the plan was generated.
	wire   []byte
	plan   *fpva.Plan
	sim    *fpva.Simulator
	vecs   []*fpva.Vector
	valves []fpva.Edge
}

// floorCases are the Table I plans test-floor uploads: 8 KB to 229 KB.
var floorCases = []string{"5x5", "10x10", "15x15"}

// loadFloorPlans generates the Table I plans in-process and prepares
// what the diagnose requests need to simulate a hidden fault.
func loadFloorPlans(ctx context.Context) ([]floorPlan, error) {
	svc := fpva.NewService(fpva.WithServiceWorkers(1))
	defer svc.Close()
	var out []floorPlan
	for _, name := range floorCases {
		a, err := fpva.BenchmarkArray(name)
		if err != nil {
			return nil, err
		}
		job, err := svc.SubmitGenerate(ctx, a)
		if err != nil {
			return nil, err
		}
		if err := job.Wait(ctx); err != nil {
			return nil, err
		}
		plan, err := job.Plan()
		if err != nil {
			return nil, err
		}
		wire, err := compactJSON(func(b *bytes.Buffer) error { return fpva.EncodePlan(b, plan) })
		if err != nil {
			return nil, err
		}
		fp, err := newFloorPlan(name, zeroNS(wire))
		if err != nil {
			return nil, err
		}
		out = append(out, fp)
	}
	return out, nil
}

// newFloorPlan decodes a plan, as the daemon does, and prepares the
// simulator that turns a hidden fault into observed readings.
func newFloorPlan(name string, wire []byte) (floorPlan, error) {
	plan, err := fpva.DecodePlan(bytes.NewReader(wire))
	if err != nil {
		return floorPlan{}, err
	}
	fp := floorPlan{name: name, wire: wire, plan: plan, valves: plan.Array().Valves()}
	if fp.sim, err = plan.Array().NewSimulator(); err != nil {
		return floorPlan{}, err
	}
	for _, vi := range plan.Vectors() {
		v := plan.Array().NewVector(vi.Name)
		for _, e := range vi.Open {
			if err := v.SetOpen(e, true); err != nil {
				return floorPlan{}, err
			}
		}
		fp.vecs = append(fp.vecs, v)
	}
	return fp, nil
}

// numFaults is how many single stuck-at faults the plan's array has.
func (fp *floorPlan) numFaults() int { return 2 * len(fp.valves) }

// fault returns single stuck-at fault i of numFaults.
func (fp *floorPlan) fault(i int) fpva.Fault {
	kind := fpva.StuckAt0
	if i%2 == 1 {
		kind = fpva.StuckAt1
	}
	return fpva.Fault{Kind: kind, A: fp.valves[i/2]}
}

// observe simulates n observations of a hidden fault: n distinct vectors
// of the plan, drawn by rng, and the readings each gives.
func (fp *floorPlan) observe(rng *rand.Rand, hidden fpva.Fault, n int) ([]api.Observation, error) {
	var obs []api.Observation
	for _, v := range rng.Perm(len(fp.vecs))[:n] {
		readings, err := fp.sim.Readings(fp.vecs[v], []fpva.Fault{hidden})
		if err != nil {
			return nil, err
		}
		obs = append(obs, api.Observation{Vector: v, Readings: readings})
	}
	return obs, nil
}

// floorStream is test-floor: campaign, verify and diagnose in equal
// shares against each Table I plan in equal shares. The campaigns' fault
// counts and the diagnoses' hidden faults are walked in cycles too, so
// the cost of the mix does not change with the seed.
type floorStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cycle  *gridCycle
	k      *cycle   // campaign fault count - 1
	hidden []*cycle // per plan, index of the hidden fault
	plans  []floorPlan
}

func newFloorStream(seed uint64) (stream, error) {
	plans, err := loadFloorPlans(context.Background())
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, "test-floor")
	dims := map[string][]string{"kind": {"campaign", "diagnose", "verify"}, "plan": floorCases}
	s := &floorStream{rng: rng, cycle: newGridCycle(dims, rng), k: newCycle(floorMaxK, rng), plans: plans}
	for i := range plans {
		s.hidden = append(s.hidden, newCycle(plans[i].numFaults(), rng))
	}
	return s, nil
}

// Request parameters of test-floor. Campaign and diagnose pin their own
// parallelism to one thread, so two clients fill two cores.
const (
	floorTrials   = 10000
	floorMaxK     = 5
	floorMaxPairs = 2000
	floorObserved = 3
)

func (s *floorStream) next(int) (request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cycle.next()
	key := 0
	for i, name := range floorCases {
		if name == c["plan"] {
			key = i
		}
	}
	fp := &s.plans[key]
	req := request{kind: c["kind"], key: key}
	var params any
	switch req.kind {
	case "campaign":
		params = api.CampaignParams{
			Trials:  floorTrials,
			Faults:  1 + s.k.next(),
			Seed:    1 + s.rng.Int64N(1<<62),
			Workers: 1,
		}
	case "verify":
		params = api.VerifyParams{MaxPairs: floorMaxPairs}
	case "diagnose":
		p := api.DiagnoseParams{Workers: 1}
		req.hidden = fp.fault(s.hidden[key].next())
		var err error
		if p.Observations, err = fp.observe(s.rng, req.hidden, floorObserved); err != nil {
			return request{}, err
		}
		params = p
	}
	var err error
	req.body, err = submitBody(req.kind, "plan", fp.wire, req.kind, params)
	return req, err
}

// ilpVariants is how many 4x4 arrays exact-ilp solves; each client draws
// from a share of its own, so no two in-flight requests coalesce.
const ilpVariants = 16

// ilpVariantSeed draws the exact-ilp variants. It is fixed, so every
// -seed solves the same 16 arrays and only the order of the requests
// changes with it: the ILP work per request varies several-fold between
// 4x4 layouts, and 16 of them drawn afresh per seed would move jobs_per_s
// by more than its bound.
const ilpVariantSeed = 1

// ilpParams selects the paper's exact models for exact-ilp.
var ilpParams = api.GenerateParams{PathEngine: "ilp-iterative", CutEngine: "ilp"}

// ilpStream is exact-ilp. Client c of n draws the variants c, c+n,
// c+2n, ... in seeded cycles, so every variant is solved equally often
// whatever the seed.
type ilpStream struct {
	mu       sync.Mutex
	variants []request
	arrays   []*fpva.Array
	picks    []*cycle // per client
}

func newILPStream(seed uint64, clients int) (*ilpStream, error) {
	dims := map[string][]string{"channels": numbers(0, 1), "obstacles": numbers(0, 1), "size": {"4"}}
	arrays := newArrayStream(ilpVariantSeed, "exact-ilp/variants", dims, smallRules)
	svc := fpva.NewService(fpva.WithServiceWorkers(1), fpva.WithCacheBytes(0))
	defer svc.Close()
	s := &ilpStream{}
	for c := 0; c < clients; c++ {
		s.picks = append(s.picks, newCycle((ilpVariants-c+clients-1)/clients, newRand(seed, fmt.Sprintf("exact-ilp/client%d", c))))
	}
	for len(s.variants) < ilpVariants {
		a, wire, err := arrays.nextArray()
		if err != nil {
			return nil, err
		}
		ok, err := ilpVariantHolds(svc, a)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		body, err := submitBody("generate", "array", wire, "generate", ilpParams)
		if err != nil {
			return nil, err
		}
		s.variants = append(s.variants, request{kind: "generate", body: body, key: len(s.variants), exactILP: true})
		s.arrays = append(s.arrays, a)
	}
	return s, nil
}

// ilpVariantHolds solves a candidate variant on the ILP engines and keeps
// it only if every solve is proven optimal and the plan detects every
// single fault, so no request of the workload can fail its checks.
func ilpVariantHolds(svc *fpva.Service, a *fpva.Array) (bool, error) {
	ctx := context.Background()
	job, err := svc.SubmitGenerate(ctx, a, ilpGenOptions()...)
	if err != nil {
		return false, err
	}
	if err := job.Wait(ctx); err != nil {
		return false, err
	}
	plan, err := job.Plan()
	if err != nil {
		return false, err
	}
	st := plan.Stats()
	if st.PathILPNonOptimal != 0 || st.CutILPNonOptimal != 0 || len(plan.UncoveredPath()) != 0 || len(plan.UncoveredCut()) != 0 {
		return false, nil
	}
	escapes, err := plan.VerifySingleFaults(ctx)
	return len(escapes) == 0, err
}

func ilpGenOptions() []fpva.GenOption {
	return []fpva.GenOption{fpva.WithPathEngine(fpva.PathEngineILPIterative), fpva.WithCutEngine(fpva.CutEngineILP)}
}

func (s *ilpStream) next(client int) (request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := client % len(s.picks)
	return s.variants[c+len(s.picks)*s.picks[c].next()], nil
}
