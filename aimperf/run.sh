#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Run it from the repository root:
#
#   bash aimperf/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, databases, traces) goes
# under .bench_build/ in the current directory. The Go toolchain is
# used offline: the benchmark module depends only on the repository's
# own module, found one directory up.
set -euo pipefail

command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$src" && go build -o "$out/bin/aimperf" .) >&2
exec "$out/bin/aimperf" --dir "$out/aimperf" "$@"
