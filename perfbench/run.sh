#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Every argument is passed through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload dataship-governed --seed 1 --seconds 55 --trace 0
#
# The binary, the Go build cache, the traced run's span files and the
# executor's spill files (through TMPDIR) go to $CARGO_TARGET_DIR when it
# is set, else to .bench_build, so nothing is written outside the
# checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
