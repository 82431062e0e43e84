package main

// In-process execution of a request body, the way cmd/fpvad handles it:
// the output checks re-run jobs with it, and the traced pass replays the
// workload through it layer by layer. It covers the request fields the
// workloads send.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/cmd/internal/api"
	"repro/fpva"
)

// payload is a decoded request: its parameters and its array or plan.
type payload struct {
	req   api.SubmitRequest
	array *fpva.Array
	plan  *fpva.Plan
}

func parseBody(body []byte) (api.SubmitRequest, error) {
	var req api.SubmitRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// decode decodes the request's array (generate) or plan (the other
// kinds), as the daemon's submit handler does.
func decode(req api.SubmitRequest) (payload, error) {
	p := payload{req: req}
	var err error
	if req.Kind == "generate" {
		p.array, err = fpva.DecodeArray(bytes.NewReader(req.Array))
	} else {
		p.plan, err = fpva.DecodePlan(bytes.NewReader(req.Plan))
	}
	return p, err
}

func genOptions(gp *api.GenerateParams) ([]fpva.GenOption, error) {
	if gp == nil {
		return nil, nil
	}
	var opts []fpva.GenOption
	if gp.PathEngine != "" {
		eng, err := fpva.ParsePathEngine(gp.PathEngine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, fpva.WithPathEngine(eng))
	}
	if gp.CutEngine != "" {
		eng, err := fpva.ParseCutEngine(gp.CutEngine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, fpva.WithCutEngine(eng))
	}
	return opts, nil
}

// submit submits the decoded request to svc; extra options (a progress
// callback) are appended to a generate job's.
func submit(ctx context.Context, svc *fpva.Service, p payload, extra ...fpva.GenOption) (*fpva.Job, error) {
	switch p.req.Kind {
	case "generate":
		opts, err := genOptions(p.req.Generate)
		if err != nil {
			return nil, err
		}
		return svc.SubmitGenerate(ctx, p.array, append(opts, extra...)...)
	case "campaign":
		var opts []fpva.CampaignOption
		if c := p.req.Campaign; c != nil {
			if c.Trials > 0 {
				opts = append(opts, fpva.WithTrials(c.Trials))
			}
			if c.Faults > 0 {
				opts = append(opts, fpva.WithNumFaults(c.Faults))
			}
			if c.Seed != 0 {
				opts = append(opts, fpva.WithSeed(c.Seed))
			}
			if c.Workers > 0 {
				opts = append(opts, fpva.WithCampaignWorkers(c.Workers))
			}
		}
		return svc.SubmitCampaign(ctx, p.plan, opts...)
	case "verify":
		maxPairs := 0
		if p.req.Verify != nil {
			maxPairs = p.req.Verify.MaxPairs
		}
		return svc.SubmitVerify(ctx, p.plan, maxPairs)
	case "diagnose":
		var obs []fpva.Observation
		var opts []fpva.DiagnoseOption
		if d := p.req.Diagnose; d != nil {
			for _, o := range d.Observations {
				obs = append(obs, fpva.Observation{Vector: o.Vector, Readings: o.Readings})
			}
			if d.Workers > 0 {
				opts = append(opts, fpva.WithDiagnoseWorkers(d.Workers))
			}
		}
		return svc.SubmitDiagnose(ctx, p.plan, obs, opts...)
	}
	return nil, fmt.Errorf("unknown job kind %q", p.req.Kind)
}

// run submits a request body to svc and waits for its result bytes.
func run(ctx context.Context, svc *fpva.Service, body []byte) ([]byte, error) {
	req, err := parseBody(body)
	if err != nil {
		return nil, err
	}
	p, err := decode(req)
	if err != nil {
		return nil, err
	}
	job, err := submit(ctx, svc, p)
	if err != nil {
		return nil, err
	}
	if err := job.Wait(ctx); err != nil {
		return nil, err
	}
	return resultBytes(job)
}

// resultBytes renders a finished job's result exactly as the daemon's
// GET /v1/jobs/{id}/result does.
func resultBytes(j *fpva.Job) ([]byte, error) {
	var buf bytes.Buffer
	switch j.Kind() {
	case fpva.JobGenerate:
		return j.PlanBytes()
	case fpva.JobCampaign:
		res, err := j.Campaign()
		if err != nil {
			return nil, err
		}
		rep := api.CampaignReport{
			Format: "fpva.campaign", Version: fpva.CodecVersion,
			Trials: res.Trials, Detected: res.Detected,
			Rate: res.DetectionRate(), Sims: res.Sims,
		}
		for _, esc := range res.Escapes {
			fs := make([]api.Fault, len(esc))
			for i, f := range esc {
				fs[i] = api.FaultStatus(f)
			}
			rep.Escapes = append(rep.Escapes, fs)
		}
		return indentJSON(rep)
	case fpva.JobVerify:
		res, err := j.Verify()
		if err != nil {
			return nil, err
		}
		rep := api.VerifyReport{
			Format: "fpva.verify", Version: fpva.CodecVersion,
			SingleEscapes: []api.Fault{}, DoubleEscapes: [][2]api.Fault{},
		}
		for _, f := range res.SingleEscapes {
			rep.SingleEscapes = append(rep.SingleEscapes, api.FaultStatus(f))
		}
		for _, pair := range res.DoubleEscapes {
			rep.DoubleEscapes = append(rep.DoubleEscapes, [2]api.Fault{api.FaultStatus(pair[0]), api.FaultStatus(pair[1])})
		}
		return indentJSON(rep)
	case fpva.JobDiagnose:
		d, err := j.Diagnosis()
		if err != nil {
			return nil, err
		}
		err = fpva.EncodeDiagnosis(&buf, d)
		return buf.Bytes(), err
	}
	return nil, fmt.Errorf("unknown job kind %v", j.Kind())
}

// indentJSON encodes v the way the daemon writes its JSON answers.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}
