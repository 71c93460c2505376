#!/usr/bin/env bash
# Builds womsim, womd and perfbench itself from the checkout this script
# sits in, then runs one benchmark workload. From the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Every build output, Go cache and scratch file stays under .bench_build/
# in the checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
# With telemetry in its default local mode, the go command forks a
# detached sidecar process that can outlive it. Turning telemetry off
# (this one command starts no sidecar) keeps every go call below from
# leaving a process behind.
go telemetry off >&2

cd "$root"
go build -o "$out/bin/womsim" ./cmd/womsim >&2
go build -o "$out/bin/womd" ./cmd/womd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
