#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload table1-races --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The toolchain's cache, temp files, the
# checker's spill files and the binary all stay under .bench_build/, so a
# run writes nothing outside the tree. Without the repository next to it
# (only bench/ present) the build fails and the script exits non-zero
# before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
