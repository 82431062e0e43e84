// Package api is the JSON contract of the fpvad job API, shared by the
// daemon (cmd/fpvad) and its clients (fpvatest -daemon). Keeping one set
// of request/response shapes means daemon and client cannot drift apart —
// previously the client re-declared the structs it needed and only the CI
// daemon smoke guarded compatibility.
//
// Plans and arrays ride inside these messages in the fpva v1 wire format
// (json.RawMessage passthrough); everything else is plain JSON. The
// service counters are fpva's own types with their JSON tags:
// ServiceStats embeds fpva.ServiceStats, and StoreStats and KindStats
// are aliases, so each counter is declared once, in fpva.
package api

import (
	"encoding/json"

	"repro/fpva"
)

// SubmitRequest is the POST /v1/jobs payload. Exactly one of Array (for
// generate) and Plan (for campaign/verify/diagnose) must be present, in
// the v1 wire format.
type SubmitRequest struct {
	Kind     string          `json:"kind"`
	Array    json.RawMessage `json:"array,omitempty"`
	Plan     json.RawMessage `json:"plan,omitempty"`
	Generate *GenerateParams `json:"generate,omitempty"`
	Campaign *CampaignParams `json:"campaign,omitempty"`
	Verify   *VerifyParams   `json:"verify,omitempty"`
	Diagnose *DiagnoseParams `json:"diagnose,omitempty"`
}

// GenerateParams tunes a generate job. SolverWorkers sets the
// branch-and-bound workers of the job's solve, capped at fpvad's
// GOMAXPROCS; fpvad's -solver-workers flag and solverWorkers config key
// size the subprocess pool instead.
type GenerateParams struct {
	Direct        bool   `json:"direct,omitempty"`
	Block         int    `json:"block,omitempty"`
	SkipLeakage   bool   `json:"skipLeakage,omitempty"`
	PathEngine    string `json:"pathEngine,omitempty"`
	CutEngine     string `json:"cutEngine,omitempty"`
	SolverWorkers int    `json:"solverWorkers,omitempty"`
}

// CampaignParams tunes a campaign job. fpvad caps Workers at its
// GOMAXPROCS; the result is the same for any worker count.
type CampaignParams struct {
	Trials     int   `json:"trials,omitempty"`
	Faults     int   `json:"faults,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	Workers    int   `json:"workers,omitempty"`
	MaxEscapes int   `json:"maxEscapes,omitempty"`
	Leaks      bool  `json:"leaks,omitempty"`
}

// VerifyParams tunes a verify job.
type VerifyParams struct {
	MaxPairs int `json:"maxPairs,omitempty"`
}

// DiagnoseParams tunes a diagnose job. Observations are the vector
// readings already taken on the device under test; the job narrows the
// candidate set against them and plans the follow-up probes. fpvad caps
// Workers at its GOMAXPROCS; the result is the same for any worker count.
// The "planner" and "engine" fields of older clients are ignored, like any
// unknown field.
type DiagnoseParams struct {
	Observations []Observation `json:"observations,omitempty"`
	Workers      int           `json:"workers,omitempty"`
	Budget       int           `json:"budget,omitempty"`
	MaxDoubles   int           `json:"maxDoubles,omitempty"`
	NoLeaks      bool          `json:"noLeaks,omitempty"`
}

// Observation is one applied test vector and the flow readings observed
// at the plan's sink order.
type Observation struct {
	Vector   int    `json:"vector"`
	Readings []bool `json:"readings"`
}

// Job is the job-status resource (also the terminal line of an event
// stream).
type Job struct {
	ID       string `json:"id"`
	Kind     string `json:"kind,omitempty"`
	State    string `json:"state"`
	CacheHit bool   `json:"cacheHit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobStatus snapshots a job handle into its wire resource.
func JobStatus(j *fpva.Job) Job {
	out := Job{ID: j.ID(), Kind: j.Kind().String(), State: j.State().String(), CacheHit: j.CacheHit()}
	if err := j.Err(); err != nil {
		out.Error = err.Error()
	}
	return out
}

// Event is one NDJSON progress line. A line with an empty Event field is
// not an event but the stream's terminal Job status record.
type Event struct {
	Event     string `json:"event"`
	Phase     string `json:"phase,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Round     int    `json:"round,omitempty"`
	Ambiguity int    `json:"ambiguity,omitempty"`
}

// EventStatus converts a progress event into its wire line.
func EventStatus(e fpva.Event) Event {
	out := Event{Event: e.Kind.String()}
	switch e.Kind {
	case fpva.PhaseStarted, fpva.PhaseFinished:
		out.Phase = e.Phase.String()
	case fpva.CampaignTick:
		out.Done, out.Total = e.TrialsDone, e.TrialsTotal
	case fpva.DiagnoseTick:
		out.Round, out.Ambiguity = e.Round, e.Ambiguity
	}
	return out
}

// Edge addresses one valve in reports.
type Edge struct {
	Orient string `json:"o"`
	R      int    `json:"r"`
	C      int    `json:"c"`
}

// Fault is the report-side fault encoding; B is present only for
// control-leak faults.
type Fault struct {
	Kind string `json:"kind"`
	A    Edge   `json:"a"`
	B    *Edge  `json:"b,omitempty"`
}

// EdgeStatus converts a valve address.
func EdgeStatus(e fpva.Edge) Edge {
	return Edge{Orient: e.Orient.String(), R: e.R, C: e.C}
}

// FaultStatus converts a fault.
func FaultStatus(f fpva.Fault) Fault {
	out := Fault{Kind: f.Kind.String(), A: EdgeStatus(f.A)}
	if f.Kind == fpva.ControlLeak {
		b := EdgeStatus(f.B)
		out.B = &b
	}
	return out
}

// CampaignReport is the GET result payload of a campaign job.
type CampaignReport struct {
	Format   string    `json:"format"` // "fpva.campaign"
	Version  int       `json:"version"`
	Trials   int       `json:"trials"`
	Detected int       `json:"detected"`
	Rate     float64   `json:"rate"`
	Sims     int       `json:"sims"`
	Escapes  [][]Fault `json:"escapes,omitempty"`
}

// VerifyReport is the GET result payload of a verify job.
type VerifyReport struct {
	Format        string     `json:"format"` // "fpva.verify"
	Version       int        `json:"version"`
	SingleEscapes []Fault    `json:"singleEscapes"`
	DoubleEscapes [][2]Fault `json:"doubleEscapes"`
}

// ServiceStats is the GET /v1/stats body: the service's counters as
// fpva.ServiceStats serves them (durations in nanoseconds), fpvad's two
// admission counters, and the durable plan store. Store shadows
// fpva.ServiceStats.Store, which that type's JSON leaves out; it is nil,
// and "store" absent, when the daemon runs without -cache-dir.
type ServiceStats struct {
	fpva.ServiceStats
	AuthFailures int         `json:"authFailures"`
	RateLimited  int         `json:"rateLimited"`
	Store        *StoreStats `json:"store,omitempty"`
}

// StoreStats is the "store" member of /v1/stats: the durable plan
// store's mode and counters.
type StoreStats = fpva.StoreStats

// Health is the GET /healthz body. Status is "ok" or "degraded"; both
// answer 200 so load balancers don't flap on a daemon that still
// serves (memory-only), while ?strict=1 turns degraded into a 503 for
// orchestrators that should drain it.
type Health struct {
	Status  string         `json:"status"`
	Store   *HealthStore   `json:"store,omitempty"`
	Workers *HealthWorkers `json:"workers"`
}

// HealthStore summarizes the durable plan store (absent without
// -cache-dir).
type HealthStore struct {
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`
}

// HealthWorkers summarizes job execution capacity: service worker
// slots, and under -solver-exec subprocess the solver pool's
// aliveness.
type HealthWorkers struct {
	Slots    int    `json:"slots"`
	Executor string `json:"executor"`
	Alive    int    `json:"alive,omitempty"`
	Busy     int    `json:"busy,omitempty"`
}

// KindStats is the per-JobKind submission/terminal tally.
type KindStats = fpva.JobKindStats
