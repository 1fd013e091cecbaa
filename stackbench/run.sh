#!/usr/bin/env bash
# Builds the stack benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash stackbench/run.sh --workload svc-a-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) and the traced
# run's span files stay under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

rev=unknown
if [ -d .git ]; then
	rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		rev="$rev+dirty"
	fi
fi

(cd "$(dirname "$0")" && go build -trimpath -ldflags "-X main.gitRev=$rev" -o "$out/stackbench" .)
exec "$out/stackbench" "$@"
