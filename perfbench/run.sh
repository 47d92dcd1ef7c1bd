#!/usr/bin/env bash
# Builds verdictd and the benchmark harness from the checkout in the
# current directory, then runs one workload. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/:
# the Go build cache, the binaries, the daemons' data directories and
# the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# With telemetry in its default "local" mode the go command forks a
# detached sidecar that outlives this script; "off" stops the fork.
mkdir -p "$out/config/go/telemetry"
printf off > "$out/config/go/telemetry/mode"

go build -o "$out/bin/verdictd" ./cmd/verdictd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -verdictd "$out/bin/verdictd" -out "$out" "$@"
