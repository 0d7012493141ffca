#!/usr/bin/env bash
# Builds the benchmark and cmd/xsdserved from the checked-out source,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest|bulk|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/xsdserved" repro/cmd/xsdserved) >&2
exec "$out/perfbench" --xsdserved "$out/xsdserved" "$@"
