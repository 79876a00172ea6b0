#!/usr/bin/env bash
# Builds rarsim's benchmark from the source in this checkout and runs it
# with the arguments given, for example
#
#   bash perfbench/run.sh --workload mem --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporaries, the
# binary, span files, the serve workload's cell cache) stays under
# .bench_build/ at the root of the checkout. Without the rest of the
# repository next to perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Built without a PGO profile, like cmd/rarsim, cmd/experiments and
# cmd/rarserved.
(cd "$root/perfbench" && go build -pgo=off -o "$out/perfbench" .)
cd "$root"
# Run the binary as a child instead of exec'ing it: ru_maxrss keeps the
# peak of the process image an exec replaces, so an exec'd benchmark would
# report its launcher's footprint as its own peak RSS.
"$out/perfbench" "$@"
