package fpva

// This file is the versioned JSON wire format. Arrays and plans serialize
// to self-describing envelopes ({"format": ..., "version": ...}) so
// generation and simulation can run as separate processes and a stored plan
// keeps working across releases.
//
// Versioning policy (see DESIGN.md): decoders accept exactly the versions
// they know; any incompatible change to the payload bumps the version and
// keeps the old decoder path alive for at least one release. Unknown JSON
// fields are ignored on decode, so additive changes do not need a bump.
//
// The array and diagnosis envelopes go through encoding/json. The plan
// envelope, the large and frequent one, has its own encoder in
// plancodec.go and a reader of the layout that encoder writes, with
// encoding/json for any other input; planEnvelope below is the schema
// both paths and the tests' encoding/json reference read.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/leakage"
	"repro/internal/sim"
)

// duration converts wire nanoseconds back to a time.Duration.
func duration(ns int64) time.Duration { return time.Duration(ns) }

const (
	// ArrayFormat names the array envelope.
	ArrayFormat = "fpva.array"
	// PlanFormat names the plan envelope.
	PlanFormat = "fpva.plan"
	// DiagnosisFormat names the diagnosis envelope.
	DiagnosisFormat = "fpva.diagnosis"
	// CodecVersion is the current wire-format version written by the
	// encoders.
	CodecVersion = 1
)

// arrayEnvelope is the array wire format: the canonical text format wrapped
// in a versioned JSON envelope. Reusing the text format keeps one source of
// truth for array geometry and makes the JSON human-auditable.
type arrayEnvelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Text    string `json:"text"`
}

// MarshalJSON renders the array in the versioned JSON wire format.
func (a *Array) MarshalJSON() ([]byte, error) {
	return json.Marshal(arrayEnvelope{Format: ArrayFormat, Version: CodecVersion, Text: a.Text()})
}

// UnmarshalJSON decodes an array from the versioned JSON wire format.
func (a *Array) UnmarshalJSON(data []byte) error {
	var env arrayEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("fpva: decode array: %w: %v", ErrWireSyntax, err)
	}
	if err := checkEnvelope(env.Format, ArrayFormat, env.Version); err != nil {
		return err
	}
	g, err := grid.Parse(strings.NewReader(env.Text))
	if err != nil {
		return fmt.Errorf("fpva: decode array: %w: %v", ErrWirePayload, err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("fpva: decode array: %w: %v", ErrWirePayload, err)
	}
	a.g = g
	return nil
}

// EncodeArray writes the array to w in the versioned JSON wire format.
func EncodeArray(w io.Writer, a *Array) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// DecodeArray reads an array in the versioned JSON wire format.
func DecodeArray(r io.Reader) (*Array, error) {
	var a Array
	if err := decodeOne(r, &a, "decode array"); err != nil {
		return nil, err
	}
	return &a, nil
}

// decodeOne decodes exactly one JSON value from r; anything but
// whitespace after it is a syntax failure (a concatenated or corrupted
// file must not pass as its first envelope).
func decodeOne(r io.Reader, v any, op string) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return wireErr(op, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("fpva: %s: %w: trailing data after the envelope", op, ErrWireSyntax)
	}
	return nil
}

// wireErr classifies a decoder error: failures already wrapping one of the
// wire sentinels pass through; anything else (truncated input, JSON type
// mismatches) is a syntax failure.
func wireErr(op string, err error) error {
	if errors.Is(err, ErrWireSyntax) || errors.Is(err, ErrWireFormat) ||
		errors.Is(err, ErrWireVersion) || errors.Is(err, ErrWirePayload) {
		return err
	}
	return fmt.Errorf("fpva: %s: %w: %v", op, ErrWireSyntax, err)
}

func checkEnvelope(format, want string, version int) error {
	if format != want {
		return fmt.Errorf("fpva: %w: %q, want %q", ErrWireFormat, format, want)
	}
	if version != CodecVersion {
		return fmt.Errorf("fpva: %s: %w: version %d (decoder speaks version %d)",
			want, ErrWireVersion, version, CodecVersion)
	}
	return nil
}

// vectorJSON is one test vector on the wire: its name, family, and the
// ascending dense IDs of the valves commanded open. Dense IDs are stable
// for a given array dimension, and the enclosing envelope always carries
// the array, so the pairing is unambiguous.
type vectorJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Open []int  `json:"open"`
}

// statsJSON carries generation statistics; durations are nanoseconds.
type statsJSON struct {
	NV                int   `json:"nv"`
	NP                int   `json:"np"`
	NC                int   `json:"nc"`
	NL                int   `json:"nl"`
	N                 int   `json:"n"`
	TPNanos           int64 `json:"tp_ns"`
	TCNanos           int64 `json:"tc_ns"`
	TLNanos           int64 `json:"tl_ns"`
	TNanos            int64 `json:"t_ns"`
	PathILPNonOptimal int   `json:"path_ilp_non_optimal,omitempty"`
	CutILPNonOptimal  int   `json:"cut_ilp_non_optimal,omitempty"`
	ILPSolves         int   `json:"ilp_solves,omitempty"`
	ILPNodes          int   `json:"ilp_nodes,omitempty"`
	SolverWallNanos   int64 `json:"solver_wall_ns,omitempty"`
}

// planEnvelope is the plan wire format: the array (text format), the three
// vector families, leakage candidate pairs, coverage gaps and statistics.
// Path/cut geometry is deliberately not serialized — vectors are the
// contract; geometry is a generation-time artifact used only for figures.
type planEnvelope struct {
	Format        string       `json:"format"`
	Version       int          `json:"version"`
	Array         string       `json:"array"`
	PathVectors   []vectorJSON `json:"pathVectors"`
	CutVectors    []vectorJSON `json:"cutVectors"`
	LeakVectors   []vectorJSON `json:"leakVectors"`
	LeakPairs     [][2]int     `json:"leakPairs,omitempty"`
	UncoveredPath []int        `json:"uncoveredPath,omitempty"`
	UncoveredCut  []int        `json:"uncoveredCut,omitempty"`
	Stats         statsJSON    `json:"stats"`
}

func vectorsFromJSON(g *grid.Array, vjs []vectorJSON) ([]*sim.Vector, error) {
	kinds := map[string]sim.VectorKind{
		sim.FlowPath.String(): sim.FlowPath,
		sim.CutSet.String():   sim.CutSet,
		sim.Leakage.String():  sim.Leakage,
		"custom":              sim.Custom,
	}
	out := make([]*sim.Vector, len(vjs))
	for i, vj := range vjs {
		kind, ok := kinds[vj.Kind]
		if !ok {
			return nil, fmt.Errorf("fpva: %w: vector %q has unknown kind %q",
				ErrWirePayload, vj.Name, vj.Kind)
		}
		v := sim.NewVector(g, kind, vj.Name)
		for _, id := range vj.Open {
			if id < 0 || id >= g.NumValves() {
				return nil, fmt.Errorf("fpva: %w: vector %q opens valve %d outside [0,%d)",
					ErrWirePayload, vj.Name, id, g.NumValves())
			}
			v.SetOpen(grid.ValveID(id), true)
		}
		out[i] = v
	}
	return out, nil
}

func intsToIDs(g *grid.Array, ints []int) ([]grid.ValveID, error) {
	if len(ints) == 0 {
		return nil, nil
	}
	out := make([]grid.ValveID, len(ints))
	for i, id := range ints {
		if id < 0 || id >= g.NumValves() {
			return nil, fmt.Errorf("fpva: %w: valve id %d outside [0,%d)",
				ErrWirePayload, id, g.NumValves())
		}
		out[i] = grid.ValveID(id)
	}
	return out, nil
}

// MarshalJSON renders the plan in the versioned JSON wire format, compact
// as json.Marshal writes it.
func (p *Plan) MarshalJSON() ([]byte, error) { return encodePlan(p, false), nil }

// UnmarshalJSON decodes a plan from the versioned JSON wire format into p,
// replacing what p held, including the vectors and signature tables it
// compiled for its old content. The decoded plan supports campaigns,
// verification and re-encoding; it does not carry path/cut geometry, so
// rendering methods report an error. As with json.Unmarshal, data must
// hold one JSON value and nothing else.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var env planEnvelope
	if n, ok := parseWire(data, &env); !ok || trailing(data[n:]) != nil {
		env = planEnvelope{} // encoding/json would merge into what parseWire read
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("fpva: decode plan: %w: %v", ErrWireSyntax, err)
		}
	}
	return env.decode(p)
}

// decode checks a decoded envelope and, when it is valid, makes p the plan
// it describes: the envelope first (ErrWireFormat, ErrWireVersion), then
// the payload (ErrWirePayload).
func (env *planEnvelope) decode(p *Plan) error {
	if err := checkEnvelope(env.Format, PlanFormat, env.Version); err != nil {
		return err
	}
	g, err := grid.Parse(strings.NewReader(env.Array))
	if err != nil {
		return fmt.Errorf("fpva: decode plan: %w: %v", ErrWirePayload, err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("fpva: decode plan: %w: %v", ErrWirePayload, err)
	}
	ts := &core.TestSet{Array: g}
	if ts.PathVectors, err = vectorsFromJSON(g, env.PathVectors); err != nil {
		return err
	}
	if ts.CutVectors, err = vectorsFromJSON(g, env.CutVectors); err != nil {
		return err
	}
	if ts.LeakVectors, err = vectorsFromJSON(g, env.LeakVectors); err != nil {
		return err
	}
	if len(env.LeakPairs) > 0 {
		ts.LeakPairs = make([]leakage.Pair, len(env.LeakPairs))
	}
	for i, lp := range env.LeakPairs {
		for k, id := range lp {
			if id < 0 || id >= g.NumValves() {
				return fmt.Errorf("fpva: %w: leak pair valve id %d outside [0,%d)",
					ErrWirePayload, id, g.NumValves())
			}
			ts.LeakPairs[i][k] = grid.ValveID(id)
		}
	}
	if ts.UncoveredPath, err = intsToIDs(g, env.UncoveredPath); err != nil {
		return err
	}
	if ts.UncoveredCut, err = intsToIDs(g, env.UncoveredCut); err != nil {
		return err
	}
	s := env.Stats
	ts.Stats = core.Stats{
		NV: s.NV, NP: s.NP, NC: s.NC, NL: s.NL, N: s.N,
		TP: duration(s.TPNanos), TC: duration(s.TCNanos),
		TL: duration(s.TLNanos), T: duration(s.TNanos),
		PathILPNonOptimal: s.PathILPNonOptimal,
		CutILPNonOptimal:  s.CutILPNonOptimal,
		ILPSolves:         s.ILPSolves,
		ILPNodes:          s.ILPNodes,
		SolverWall:        duration(s.SolverWallNanos),
	}
	p.a = &Array{g: g}
	p.ts = ts
	p.geometry = false
	p.mu.Lock()
	p.compiled = nil
	p.mu.Unlock()
	return nil
}

// faultJSON is one fault on the wire: the kind name and the dense valve
// IDs it touches. B is present only for control-leak faults (a pointer, so
// valve 0 is representable).
type faultJSON struct {
	Kind string `json:"kind"`
	A    int    `json:"a"`
	B    *int   `json:"b,omitempty"`
}

func faultsToJSON(g *grid.Array, fs []Fault) ([]faultJSON, error) {
	out := make([]faultJSON, 0, len(fs))
	for _, f := range fs {
		ida, err := valveID(g, f.A)
		if err != nil {
			return nil, err
		}
		fj := faultJSON{Kind: f.Kind.String(), A: int(ida)}
		if f.Kind == ControlLeak {
			idb, err := valveID(g, f.B)
			if err != nil {
				return nil, err
			}
			b := int(idb)
			fj.B = &b
		}
		out = append(out, fj)
	}
	return out, nil
}

func faultsFromJSON(g *grid.Array, fjs []faultJSON) ([]Fault, error) {
	kinds := map[string]FaultKind{
		StuckAt0.String():    StuckAt0,
		StuckAt1.String():    StuckAt1,
		ControlLeak.String(): ControlLeak,
	}
	out := make([]Fault, 0, len(fjs))
	for _, fj := range fjs {
		kind, ok := kinds[fj.Kind]
		if !ok {
			return nil, fmt.Errorf("fpva: %w: unknown fault kind %q", ErrWirePayload, fj.Kind)
		}
		ids, err := intsToIDs(g, []int{fj.A})
		if err != nil {
			return nil, err
		}
		f := Fault{Kind: kind, A: edgeOf(g, ids[0])}
		if kind == ControlLeak {
			if fj.B == nil {
				return nil, fmt.Errorf("fpva: %w: control-leak fault missing valve b", ErrWirePayload)
			}
			ids, err := intsToIDs(g, []int{*fj.B})
			if err != nil {
				return nil, err
			}
			f.B = edgeOf(g, ids[0])
		}
		out = append(out, f)
	}
	return out, nil
}

// diagnosisEnvelope is the diagnosis wire format: the array (text format),
// the surviving candidate fault sets, their signature classes, the probe
// plan and the per-round narrowing stats.
type diagnosisEnvelope struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	Array      string          `json:"array"`
	Consistent bool            `json:"consistent"`
	FaultFree  bool            `json:"faultFree"`
	Isolated   bool            `json:"isolated"`
	Ambiguity  [][]faultJSON   `json:"ambiguity"`
	Classes    [][]int         `json:"classes,omitempty"`
	Probes     []ProbeStep     `json:"probes,omitempty"`
	Rounds     []DiagnoseRound `json:"rounds,omitempty"`
}

// MarshalJSON renders the diagnosis in the versioned JSON wire format.
func (d *Diagnosis) MarshalJSON() ([]byte, error) {
	env := diagnosisEnvelope{
		Format:     DiagnosisFormat,
		Version:    CodecVersion,
		Array:      grid.Marshal(d.a.g),
		Consistent: d.Consistent,
		FaultFree:  d.FaultFree,
		Isolated:   d.Isolated,
		Ambiguity:  make([][]faultJSON, len(d.Ambiguity)),
		Classes:    d.Classes,
		Probes:     d.Probes,
		Rounds:     d.Rounds,
	}
	for i, fs := range d.Ambiguity {
		fjs, err := faultsToJSON(d.a.g, fs)
		if err != nil {
			return nil, err
		}
		env.Ambiguity[i] = fjs
	}
	return json.Marshal(env)
}

// UnmarshalJSON decodes a diagnosis from the versioned JSON wire format.
func (d *Diagnosis) UnmarshalJSON(data []byte) error {
	var env diagnosisEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("fpva: decode diagnosis: %w: %v", ErrWireSyntax, err)
	}
	if err := checkEnvelope(env.Format, DiagnosisFormat, env.Version); err != nil {
		return err
	}
	g, err := grid.Parse(strings.NewReader(env.Array))
	if err != nil {
		return fmt.Errorf("fpva: decode diagnosis: %w: %v", ErrWirePayload, err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("fpva: decode diagnosis: %w: %v", ErrWirePayload, err)
	}
	amb := make([][]Fault, len(env.Ambiguity))
	for i, fjs := range env.Ambiguity {
		if amb[i], err = faultsFromJSON(g, fjs); err != nil {
			return err
		}
	}
	for _, class := range env.Classes {
		for _, idx := range class {
			if idx < 0 || idx >= len(amb) {
				return fmt.Errorf("fpva: %w: class member %d outside the %d-candidate ambiguity set",
					ErrWirePayload, idx, len(amb))
			}
		}
	}
	for _, p := range env.Probes {
		if p.Vector < 0 {
			return fmt.Errorf("fpva: %w: probe names negative vector %d", ErrWirePayload, p.Vector)
		}
	}
	for _, r := range env.Rounds {
		if r.Vector < 0 {
			return fmt.Errorf("fpva: %w: round names negative vector %d", ErrWirePayload, r.Vector)
		}
	}
	d.a = &Array{g: g}
	d.Consistent = env.Consistent
	d.FaultFree = env.FaultFree
	d.Isolated = env.Isolated
	d.Ambiguity = amb
	d.Classes = env.Classes
	// An empty list decodes to nil: append to nil adds no backing array.
	d.Probes = append([]ProbeStep(nil), env.Probes...)
	d.Rounds = append([]DiagnoseRound(nil), env.Rounds...)
	return nil
}

// EncodeDiagnosis writes the diagnosis to w in the versioned JSON wire
// format.
func EncodeDiagnosis(w io.Writer, d *Diagnosis) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeDiagnosis reads a diagnosis in the versioned JSON wire format.
func DecodeDiagnosis(r io.Reader) (*Diagnosis, error) {
	var d Diagnosis
	if err := decodeOne(r, &d, "decode diagnosis"); err != nil {
		return nil, err
	}
	return &d, nil
}

// EncodePlan writes the plan to w in the versioned JSON wire format,
// indented, in one Write.
func EncodePlan(w io.Writer, p *Plan) error {
	if p == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	buf := wireBufs.Get().(*[]byte)
	*buf = appendPlan((*buf)[:0], p, true)
	_, err := w.Write(*buf)
	wireBufs.Put(buf)
	return err
}

// DecodePlan reads a plan in the versioned JSON wire format: r must hold
// exactly one plan envelope, optionally followed by whitespace.
func DecodePlan(r io.Reader) (*Plan, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("fpva: decode plan: %w: %v", ErrWireSyntax, err)
	}
	return decodePlan(data)
}
