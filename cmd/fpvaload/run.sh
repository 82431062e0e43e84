#!/usr/bin/env bash
# run.sh: build fpvaload from source and run it from the repository root.
# Arguments pass through, e.g.
#
#   bash cmd/fpvaload/run.sh --workload generate-cold --seed 1 --seconds 30 --trace 0
#
# The Go build cache and configuration, the binaries, the daemons' cache
# directories and the span files all stay under .bench_build/ in the
# repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/fpvaload" && go build -o "$out/fpvaload" .)
exec "$out/fpvaload" "$@"
