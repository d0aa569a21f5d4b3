#!/usr/bin/env bash
# Builds ulba-serve and the benchmark program from the checkout in the
# current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go caches, the two binaries, per-run stores and server logs
# (removed when the run ends), and the traced runs' span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ulba-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a ulba checkout (go.mod, cmd/ulba-serve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep the Go toolchain's caches, temporary files and telemetry inside the
# checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/ulba-serve" ./cmd/ulba-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/ulba-serve" -work "$out" "$@"
