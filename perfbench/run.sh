#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload dense-deep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the traced runs' span files stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. The benchmark's result is
# the last line of standard output; build chatter goes to standard error.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The Go toolchain's standard install location, if go is not on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
