package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/cmd/internal/api"
)

// findRoot walks up from the working directory to the repro module root,
// the tree the daemon is built from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repro module (go.mod with \"module repro\") above the working directory")
		}
		dir = parent
	}
}

// binaries are the daemon and its solver worker, built from the tree.
type binaries struct{ fpvad, fpvaworker string }

// buildBinaries builds fpvad and fpvaworker from root into dir. The
// worker serves the traced pass's subprocess executor probe.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/fpvad", "./cmd/fpvaworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build fpvad fpvaworker: %v\n%s", err, out)
	}
	return binaries{fpvad: filepath.Join(dir, "fpvad"), fpvaworker: filepath.Join(dir, "fpvaworker")}, nil
}

// daemon is one booted fpvad process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	out  *addrWatcher
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes
}

// listening matches the address line fpvad prints once its listener is
// open, so no readiness polling is needed.
var listening = regexp.MustCompile(`listening on (http://\S+)`)

// addrWatcher collects the daemon's output and hands over its address.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listening.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon boots fpvad on an ephemeral loopback port and returns once
// it accepts connections.
func startDaemon(ctx context.Context, bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(daemonWorkers)}, flags...)
	out := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	// Should the benchmark die without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-out.addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("fpvad exited during start-up: %v\n%s", d.err, out)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("fpvad printed no address within 30s:\n%s", out)
	}
}

// stop shuts the daemon down with SIGTERM (it cancels its jobs and drains
// its worker subprocesses) and waits for it; a daemon that hangs is
// killed.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// rssPeakMB is the daemon's peak resident set (VmHWM), in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", d.cmd.Process.Pid)
}

// getJSON fetches one JSON document from the daemon.
func getJSON(ctx context.Context, c *client, path string, v any) error {
	code, b, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

func getStats(ctx context.Context, c *client) (api.ServiceStats, error) {
	var st api.ServiceStats
	err := getJSON(ctx, c, "/v1/stats", &st)
	return st, err
}
