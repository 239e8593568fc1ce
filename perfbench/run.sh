#!/usr/bin/env bash
# Builds the NETDAG benchmark from the source tree it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus|pareto|serve --seed N --seconds S --trace 0|1
#
# The benchmark is its own Go module (perfbench/go.mod) that points at
# the enclosing repository with a replace directive, so it always
# measures the code of the tree it sits in, and fails to build when
# that tree is absent.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every toolchain write inside the tree, and never fetch anything.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
