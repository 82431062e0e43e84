#!/bin/sh
# fpvad-smoke.sh: end-to-end daemon smoke test, run by CI and `make
# smoke-daemon`. It boots fpvad on an ephemeral port, submits a 4x4
# generate job (once through the fpvatest -daemon client, once through raw
# curl), streams the NDJSON progress of both, fetches the plans, replays
# one with fpvasim, proves the upload round trip is bit-identical to
# local `fpvatest -o` output, and drives a diagnose job plus the
# closed-loop fpvasim -diagnose study against the same plan.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
daemon_pid=""
sub_pid=""
dur_pid=""
auth_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	[ -n "$sub_pid" ] && kill "$sub_pid" 2>/dev/null || true
	[ -n "$dur_pid" ] && kill -9 "$dur_pid" 2>/dev/null || true
	[ -n "$auth_pid" ] && kill "$auth_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# wait_base LOGFILE: print the daemon's base URL once it appears.
wait_base() {
	_wb_base=""
	_wb_i=0
	while [ $_wb_i -lt 100 ]; do
		_wb_base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$1")
		[ -n "$_wb_base" ] && break
		_wb_i=$((_wb_i + 1))
		sleep 0.1
	done
	if [ -z "$_wb_base" ]; then
		echo "error: fpvad did not start ($1)" >&2
		cat "$1" >&2
		exit 1
	fi
	printf '%s' "$_wb_base"
}

echo "== build"
go build -o "$tmp/fpvad" ./cmd/fpvad
go build -o "$tmp/fpvaworker" ./cmd/fpvaworker
go build -o "$tmp/fpvatest" ./cmd/fpvatest
go build -o "$tmp/fpvasim" ./cmd/fpvasim

echo "== boot fpvad"
"$tmp/fpvad" -addr 127.0.0.1:0 >"$tmp/fpvad.log" 2>&1 &
daemon_pid=$!
base=""
i=0
while [ $i -lt 100 ]; do
	base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$tmp/fpvad.log")
	[ -n "$base" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$base" ]; then
	echo "error: fpvad did not start" >&2
	cat "$tmp/fpvad.log" >&2
	exit 1
fi
curl -fsS "$base/healthz" >/dev/null
echo "   up at $base"

echo "== remote generate via fpvatest -daemon (submit + stream + fetch)"
"$tmp/fpvatest" -daemon "$base" -rows 4 -cols 4 -progress \
	-o "$tmp/remote-plan.json" 2>"$tmp/client-progress.log"
grep -q "phase" "$tmp/client-progress.log" || {
	echo "error: client saw no streamed progress" >&2
	exit 1
}

echo "== raw curl flow: submit a 4x4 generate job"
cat >"$tmp/mkarray.go" <<'EOF'
package main

import (
	"os"
	"strconv"

	"repro/fpva"
)

func main() {
	rows, cols := 4, 4
	if len(os.Args) == 3 {
		rows, _ = strconv.Atoi(os.Args[1])
		cols, _ = strconv.Atoi(os.Args[2])
	}
	a, err := fpva.NewArray(rows, cols)
	if err != nil {
		panic(err)
	}
	if err := fpva.EncodeArray(os.Stdout, a); err != nil {
		panic(err)
	}
}
EOF
go run "$tmp/mkarray.go" >"$tmp/array.json"
printf '{"kind":"generate","array":%s}' "$(cat "$tmp/array.json")" >"$tmp/gen-req.json"
curl -fsS -X POST --data-binary @"$tmp/gen-req.json" "$base/v1/jobs" >"$tmp/submit.json"
id=$(tr -d ' \n' <"$tmp/submit.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "error: no job id in $(cat "$tmp/submit.json")" >&2; exit 1; }
echo "   job $id"

echo "== stream NDJSON progress until the job finishes"
curl -fsSN "$base/v1/jobs/$id/events" >"$tmp/events.ndjson"
grep -q '"event":"phase-started"' "$tmp/events.ndjson"
grep -q '"state":"done"' "$tmp/events.ndjson"

echo "== fetch the plan and replay it with fpvasim"
curl -fsS "$base/v1/jobs/$id/result" >"$tmp/curl-plan.json"
# Both 4x4 jobs hit the same cache entry, so the served bytes agree.
cmp "$tmp/remote-plan.json" "$tmp/curl-plan.json"
"$tmp/fpvasim" -plan "$tmp/curl-plan.json" -trials 200 -faults 2 | grep -q "faults"

echo "== plan upload round trip is bit-identical to fpvatest -o"
"$tmp/fpvatest" -rows 4 -cols 4 -o "$tmp/local-plan.json" >/dev/null
printf '{"kind":"campaign","plan":%s,"campaign":{"trials":500,"faults":2,"seed":7}}' \
	"$(cat "$tmp/local-plan.json")" >"$tmp/camp-req.json"
curl -fsS -X POST --data-binary @"$tmp/camp-req.json" "$base/v1/jobs" >"$tmp/camp-submit.json"
cid=$(tr -d ' \n' <"$tmp/camp-submit.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
curl -fsS "$base/v1/jobs/$cid/plan" >"$tmp/roundtrip-plan.json"
cmp "$tmp/local-plan.json" "$tmp/roundtrip-plan.json"
curl -fsSN "$base/v1/jobs/$cid/events" >/dev/null # wait for the campaign
curl -fsS "$base/v1/jobs/$cid/result" | grep -q '"detected": 500'

echo "== diagnose job: submit, stream ticks, decode the wire diagnosis"
printf '{"kind":"diagnose","plan":%s,"diagnose":{}}' \
	"$(cat "$tmp/local-plan.json")" >"$tmp/diag-req.json"
curl -fsS -X POST --data-binary @"$tmp/diag-req.json" "$base/v1/jobs" >"$tmp/diag-submit.json"
grep -q '"kind": "diagnose"' "$tmp/diag-submit.json"
did=$(tr -d ' \n' <"$tmp/diag-submit.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$did" ] || { echo "error: no diagnose job id in $(cat "$tmp/diag-submit.json")" >&2; exit 1; }
curl -fsSN "$base/v1/jobs/$did/events" >"$tmp/diag-events.ndjson"
grep -q '"state":"done"' "$tmp/diag-events.ndjson"
curl -fsS "$base/v1/jobs/$did/result" >"$tmp/diagnosis.json"
grep -q '"format": "fpva.diagnosis"' "$tmp/diagnosis.json"
grep -q '"consistent": true' "$tmp/diagnosis.json"

echo "== closed-loop diagnosis study via fpvasim -diagnose"
"$tmp/fpvasim" -plan "$tmp/local-plan.json" -diagnose | grep -q "singleton"

echo "== service stats"
curl -fsS "$base/v1/stats" | tee "$tmp/stats.json" | grep -q '"solves": 1'
grep -q '"diagnoses": 1' "$tmp/stats.json"
grep -q '"diagnose"' "$tmp/stats.json"
# The admission counters and the per-kind tallies ride next to the
# service counters.
grep -q '"authFailures": 0' "$tmp/stats.json"
grep -q '"rateLimited": 0' "$tmp/stats.json"
grep -q '"kinds"' "$tmp/stats.json"

echo "== subprocess solver mode: same request, byte-identical plan"
# A second daemon whose solves run in fpvaworker subprocesses. The plan it
# serves must match the in-process daemon's bytes exactly once the five
# timing fields (measurements, not content) are normalized.
"$tmp/fpvad" -addr 127.0.0.1:0 -solver-exec subprocess \
	-solver-worker-bin "$tmp/fpvaworker" -solver-workers 1 \
	>"$tmp/fpvad-sub.log" 2>&1 &
sub_pid=$!
sub_base=""
i=0
while [ $i -lt 100 ]; do
	sub_base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$tmp/fpvad-sub.log")
	[ -n "$sub_base" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$sub_base" ]; then
	echo "error: subprocess-mode fpvad did not start" >&2
	cat "$tmp/fpvad-sub.log" >&2
	exit 1
fi
grep -q "subprocess solver" "$tmp/fpvad-sub.log"
curl -fsS -X POST --data-binary @"$tmp/gen-req.json" "$sub_base/v1/jobs" >"$tmp/sub-submit.json"
sid=$(tr -d ' \n' <"$tmp/sub-submit.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "error: no job id in $(cat "$tmp/sub-submit.json")" >&2; exit 1; }
curl -fsSN "$sub_base/v1/jobs/$sid/events" >/dev/null # wait for the solve
curl -fsS "$sub_base/v1/jobs/$sid/plan" >"$tmp/sub-plan.json"
norm() {
	sed -E 's/"(tp_ns|tc_ns|tl_ns|t_ns|solver_wall_ns)": [0-9]+/"\1": 0/g' "$1"
}
norm "$tmp/sub-plan.json" >"$tmp/sub-plan.norm"
norm "$tmp/curl-plan.json" >"$tmp/in-plan.norm"
cmp "$tmp/sub-plan.norm" "$tmp/in-plan.norm" || {
	echo "error: subprocess-mode plan differs from in-process beyond timing" >&2
	exit 1
}
curl -fsS "$sub_base/v1/stats" | grep -q '"solverExecutor": "subprocess"'
echo "== subprocess daemon graceful shutdown"
kill "$sub_pid"
wait "$sub_pid" || { echo "error: subprocess-mode fpvad exited non-zero" >&2; cat "$tmp/fpvad-sub.log" >&2; exit 1; }
sub_pid=""
grep -q "shut down" "$tmp/fpvad-sub.log"

echo "== graceful shutdown"
kill "$daemon_pid"
wait "$daemon_pid" || { echo "error: fpvad exited non-zero" >&2; cat "$tmp/fpvad.log" >&2; exit 1; }
daemon_pid=""
grep -q "shut down" "$tmp/fpvad.log"

echo "== restart persistence: -cache-dir survives kill -9"
cache="$tmp/cache"
"$tmp/fpvad" -addr 127.0.0.1:0 -cache-dir "$cache" >"$tmp/fpvad-dur.log" 2>&1 &
dur_pid=$!
dur_base=$(wait_base "$tmp/fpvad-dur.log")
grep -q "durable plan store" "$tmp/fpvad-dur.log"
curl -fsS -X POST --data-binary @"$tmp/gen-req.json" "$dur_base/v1/jobs" >"$tmp/dur-submit.json"
durid=$(tr -d ' \n' <"$tmp/dur-submit.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
curl -fsSN "$dur_base/v1/jobs/$durid/events" >/dev/null # wait for the solve
curl -fsS "$dur_base/v1/jobs/$durid/plan" >"$tmp/dur-plan-1.json"
curl -fsS "$dur_base/v1/stats" | grep -q '"mode": "ok"'
# Fire another solve and SIGKILL the daemon mid-workload: no shutdown
# hooks run, so this is the crash-safety path, not the clean one.
go run "$tmp/mkarray.go" 5 5 >"$tmp/array5.json"
printf '{"kind":"generate","array":%s}' "$(cat "$tmp/array5.json")" >"$tmp/gen-req2.json"
curl -fsS -X POST --data-binary @"$tmp/gen-req2.json" "$dur_base/v1/jobs" >/dev/null
kill -9 "$dur_pid"
wait "$dur_pid" 2>/dev/null || true
dur_pid=""

"$tmp/fpvad" -addr 127.0.0.1:0 -cache-dir "$cache" >"$tmp/fpvad-dur2.log" 2>&1 &
dur_pid=$!
dur_base=$(wait_base "$tmp/fpvad-dur2.log")
curl -fsS -X POST --data-binary @"$tmp/gen-req.json" "$dur_base/v1/jobs" >"$tmp/dur-submit2.json"
durid2=$(tr -d ' \n' <"$tmp/dur-submit2.json" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
curl -fsSN "$dur_base/v1/jobs/$durid2/events" >/dev/null
# The restarted daemon served the plan from disk: no solve, a store hit,
# and byte-identical plan output.
curl -fsS "$dur_base/v1/jobs/$durid2" | grep -q '"cacheHit": true'
curl -fsS "$dur_base/v1/jobs/$durid2/plan" >"$tmp/dur-plan-2.json"
cmp "$tmp/dur-plan-1.json" "$tmp/dur-plan-2.json"
curl -fsS "$dur_base/v1/stats" >"$tmp/dur-stats.json"
grep -q '"solves": 0' "$tmp/dur-stats.json"
grep -q '"hits": 1' "$tmp/dur-stats.json"
curl -fsS "$dur_base/healthz" | grep -q '"status": "ok"'
kill -9 "$dur_pid" 2>/dev/null || true
dur_pid=""

echo "== admission control: bearer auth and rate limits"
printf 'ci:smoke-secret-token\n' >"$tmp/tokens"
"$tmp/fpvad" -token-file "$tmp/tokens" -rate 1 -burst 1 -max-pending 4 -validate | grep -q "configuration ok"
"$tmp/fpvad" -addr 127.0.0.1:0 -token-file "$tmp/tokens" -rate 1 -burst 1 \
	>"$tmp/fpvad-auth.log" 2>&1 &
auth_pid=$!
auth_base=$(wait_base "$tmp/fpvad-auth.log")
code=$(curl -s -o /dev/null -w '%{http_code}' "$auth_base/v1/stats")
[ "$code" = "401" ] || { echo "error: unauthenticated request got $code, want 401" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$auth_base/healthz")
[ "$code" = "200" ] || { echo "error: healthz needs auth ($code)" >&2; exit 1; }
auth() {
	curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer smoke-secret-token" "$auth_base/v1/stats"
}
code=$(auth)
[ "$code" = "200" ] || { echo "error: authenticated request got $code, want 200" >&2; exit 1; }
# Burst spent: immediate repeats must hit the limiter.
limited=0
for _ in 1 2 3; do
	[ "$(auth)" = "429" ] && limited=1
done
[ "$limited" = "1" ] || { echo "error: rate limiter never returned 429" >&2; exit 1; }
kill "$auth_pid"
wait "$auth_pid" || { echo "error: auth-mode fpvad exited non-zero" >&2; cat "$tmp/fpvad-auth.log" >&2; exit 1; }
auth_pid=""

echo "fpvad smoke ok"
