#!/usr/bin/env bash
# Builds csrlcheck, csrld and the csrlbench program from source, then runs
# csrlbench. Run from the repository root:
#
#	bash csrlbench/run.sh --workload paper-p3 --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache and the run records stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/csrlcheck" ] || [ ! -d "$root/cmd/csrld" ]; then
	echo "csrlbench: run from the repository root (go.mod, cmd/csrlcheck and cmd/csrld are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root" && go build -o "$build/bin/" ./cmd/csrlcheck ./cmd/csrld)
(cd "$here" && go build -o "$build/bin/csrlbench" .)
exec "$build/bin/csrlbench" -root "$root" -build "$build" "$@"
