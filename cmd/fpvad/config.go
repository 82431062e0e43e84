// Config-file mode: `fpvad -config fpvad.json` reads the same settings
// the flags carry from a JSON document, so a multi-tenant deployment is
// one reviewable file instead of a shell line. Precedence is simple and
// explicit: built-in defaults, then the config file, then any flag
// given on the command line. `-validate` parses and checks everything
// (config syntax, flag ranges, the token file) and exits without
// binding a socket.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// jsonDuration accepts Go duration strings ("5m", "1h30m") and bare
// numbers (nanoseconds) in config files.
type jsonDuration time.Duration

func (d *jsonDuration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = jsonDuration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = jsonDuration(n)
	return nil
}

// fileConfig is the JSON shape of a fpvad config file. Every field
// maps 1:1 onto a flag; an absent field keeps the default, and so does a
// zero one, except cacheMB, whose 0 disables the plan cache as -cache-mb
// 0 does. Unknown fields are an error so typos fail -validate instead of
// silently deploying defaults.
type fileConfig struct {
	Addr            string       `json:"addr"`
	Workers         int          `json:"workers"`
	CacheMB         *int         `json:"cacheMB"`
	CacheDir        string       `json:"cacheDir"`
	CacheDirMB      int          `json:"cacheDirMB"`
	PprofAddr       string       `json:"pprofAddr"`
	SolverExec      string       `json:"solverExec"`
	SolverWorkers   int          `json:"solverWorkers"`
	SolverWorkerBin string       `json:"solverWorkerBin"`
	WorkerMemMB     int          `json:"workerMemMB"`
	SolverTimeout   jsonDuration `json:"solverTimeout"`
	JobTTL          jsonDuration `json:"jobTTL"`
	JobTimeout      jsonDuration `json:"jobTimeout"`
	TokenFile       string       `json:"tokenFile"`
	RatePerSec      float64      `json:"ratePerSec"`
	RateBurst       int          `json:"rateBurst"`
	MaxPending      int          `json:"maxPending"`
}

// scanConfigArg finds -config/--config in args before the flag set is
// built, so the file's values can become the flags' defaults (which is
// what makes "flags override file" fall out of flag.Parse itself).
func scanConfigArg(args []string) (string, error) {
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if arg == "--" {
			return "", nil
		}
		name, val, eq := strings.Cut(arg, "=")
		if name != "-config" && name != "--config" {
			continue
		}
		if eq {
			return val, nil
		}
		if i+1 >= len(args) {
			return "", fmt.Errorf("flag needs an argument: -config")
		}
		return args[i+1], nil
	}
	return "", nil
}

// applyConfigFile overlays the file's settings onto opt (see fileConfig).
func applyConfigFile(path string, opt *options) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if dec.More() {
		return fmt.Errorf("%s: trailing data after the config object", path)
	}
	if fc.Addr != "" {
		opt.addr = fc.Addr
	}
	if fc.Workers != 0 {
		opt.workers = fc.Workers
	}
	if fc.CacheMB != nil {
		opt.cacheMB = *fc.CacheMB
	}
	if fc.CacheDir != "" {
		opt.cacheDir = fc.CacheDir
	}
	if fc.CacheDirMB != 0 {
		opt.cacheDirMB = fc.CacheDirMB
	}
	if fc.PprofAddr != "" {
		opt.pprofAddr = fc.PprofAddr
	}
	if fc.SolverExec != "" {
		opt.solverExecName = fc.SolverExec
	}
	if fc.SolverWorkers != 0 {
		opt.solverWorkers = fc.SolverWorkers
	}
	if fc.SolverWorkerBin != "" {
		opt.workerBin = fc.SolverWorkerBin
	}
	if fc.WorkerMemMB != 0 {
		opt.workerMemMB = fc.WorkerMemMB
	}
	if fc.SolverTimeout != 0 {
		opt.solverTimeout = time.Duration(fc.SolverTimeout)
	}
	if fc.JobTTL != 0 {
		opt.jobTTL = time.Duration(fc.JobTTL)
	}
	if fc.JobTimeout != 0 {
		opt.jobTimeout = time.Duration(fc.JobTimeout)
	}
	if fc.TokenFile != "" {
		opt.tokenFile = fc.TokenFile
	}
	if fc.RatePerSec != 0 {
		opt.ratePerSec = fc.RatePerSec
	}
	if fc.RateBurst != 0 {
		opt.rateBurst = fc.RateBurst
	}
	if fc.MaxPending != 0 {
		opt.maxPending = fc.MaxPending
	}
	return nil
}
