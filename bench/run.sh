#!/usr/bin/env bash
# Builds gsperf from source inside the checkout and runs it with the
# caller's arguments. The Go build cache and the toolchain's telemetry
# counters (kept under the user's configuration directory) are sent
# inside the checkout so nothing is written outside it; the first build of
# a checkout therefore compiles the standard library too (a quarter of a
# minute).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.gocache"
export XDG_CONFIG_HOME="$here/.gocache/config"
# The git revision is stamped into the binary where there is one; a
# checkout git cannot read still builds.
go build -C "$here" -o bin/gsperf . 2>/dev/null || go build -C "$here" -buildvcs=false -o bin/gsperf .
exec "$here/bin/gsperf" "$@"
