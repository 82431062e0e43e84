// Admission control for fpvad's front door: static bearer-token auth
// and per-client token-bucket rate limits. Both sit in front of the
// job API as ordinary middleware; /healthz stays open so load
// balancers can probe an instance they have no credentials for.
package main

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// admission is fpvad's auth + rate-limit state. A nil *admission (no
// -token-file, no -rate) disables the middleware entirely.
type admission struct {
	tokens map[string]string // token -> client name; nil disables auth
	rate   float64           // sustained requests/second per client; <= 0 disables
	burst  float64           // bucket capacity
	now    func() time.Time

	mu           sync.Mutex
	buckets      map[string]*bucket
	sweepAt      int       // bucket count at which a new client sweeps
	sweptAt      time.Time // time of the last sweep
	authFailures int
	rateLimited  int
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// newAdmission builds the middleware state; it returns nil when
// neither auth nor rate limiting is configured.
func newAdmission(tokens map[string]string, rate float64, burst int) *admission {
	if tokens == nil && rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &admission{
		tokens:  tokens,
		rate:    rate,
		burst:   b,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// counters snapshots the admission counters for /v1/stats.
func (a *admission) counters() (authFailures, rateLimited int) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.authFailures, a.rateLimited
}

// wrap guards next with auth and rate limiting. /healthz passes
// through untouched.
func (a *admission) wrap(next http.Handler) http.Handler {
	if a == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		client, ok := a.authenticate(r)
		if !ok {
			a.mu.Lock()
			a.authFailures++
			a.mu.Unlock()
			w.Header().Set("WWW-Authenticate", `Bearer realm="fpvad"`)
			httpError(w, http.StatusUnauthorized, errors.New("missing or unknown bearer token"))
			return
		}
		if retry, limited := a.limit(client); limited {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			httpError(w, http.StatusTooManyRequests,
				fmt.Errorf("client %q over its request rate; retry after %v", client, retry.Round(time.Millisecond)))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// authenticate resolves the request to a client identity. With auth
// enabled the bearer token must match a configured credential
// (constant-time compare); without it, rate limits key on the remote
// host so one busy peer cannot starve the rest.
func (a *admission) authenticate(r *http.Request) (string, bool) {
	if a.tokens == nil {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		return host, true
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || tok == "" {
		return "", false
	}
	// Constant-time scan: compare against every credential so response
	// timing leaks neither token prefixes nor membership.
	var name string
	found := 0
	for cand, n := range a.tokens {
		if len(cand) == len(tok) && subtle.ConstantTimeCompare([]byte(cand), []byte(tok)) == 1 {
			name = n
			found = 1
		}
	}
	return name, found == 1
}

// limit charges one request to the client's token bucket, reporting
// how long to wait when the bucket is dry.
func (a *admission) limit(client string) (retry time.Duration, limited bool) {
	if a.rate <= 0 {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	now := a.now()
	if b == nil {
		if len(a.buckets) >= a.sweepAt || now.Sub(a.sweptAt).Seconds()*a.rate >= a.burst {
			a.sweepFull(now)
		}
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	} else {
		b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, false
	}
	a.rateLimited++
	return time.Duration((1 - b.tokens) / a.rate * float64(time.Second)), true
}

// sweepFull drops every bucket whose lazy refill has reached the burst: a
// full bucket admits exactly what a fresh one does, so no decision
// changes. A new client sweeps when the map has doubled since the last
// sweep, which keeps the cost amortized O(1) per client, or when a full
// refill period has passed since it, by when every bucket it kept is full
// unless charged again. Without -token-file the clients are remote hosts,
// so without sweeps every peer ever seen would keep a bucket. The caller
// holds a.mu.
func (a *admission) sweepFull(now time.Time) {
	for client, b := range a.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*a.rate >= a.burst {
			delete(a.buckets, client)
		}
	}
	a.sweepAt = 2 * len(a.buckets)
	a.sweptAt = now
}

// retryAfterSeconds rounds a wait up to whole seconds (the Retry-After
// header's unit), never below 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// loadTokenFile parses the static credential file: one credential per
// line, either "name:token" or a bare token (whose client name is
// derived from the token's SHA-256, so logs and stats never echo the
// secret). Blank lines and '#' comments are ignored. Tokens must be
// unique and at least 8 characters.
func loadTokenFile(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tokens := make(map[string]string)
	names := make(map[string]bool)
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, tok, ok := strings.Cut(line, ":")
		if !ok {
			tok, name = line, ""
		}
		tok = strings.TrimSpace(tok)
		name = strings.TrimSpace(name)
		if len(tok) < 8 {
			return nil, fmt.Errorf("%s:%d: token shorter than 8 characters", path, i+1)
		}
		if name == "" {
			sum := sha256.Sum256([]byte(tok))
			name = "client-" + hex.EncodeToString(sum[:4])
		}
		if _, dup := tokens[tok]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate token", path, i+1)
		}
		if names[name] {
			return nil, fmt.Errorf("%s:%d: duplicate client name %q", path, i+1, name)
		}
		tokens[tok] = name
		names[name] = true
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("%s: no credentials (want one \"name:token\" per line)", path)
	}
	return tokens, nil
}
