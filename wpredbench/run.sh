#!/usr/bin/env bash
# Builds wpredd and the benchmark program from the checkout that contains
# this directory, then runs the program with the given arguments:
#
#   bash wpredbench/run.sh --workload bulk-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# checkout root. Binaries are rebuilt only when a Go source file changes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

stamp="$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
if [[ ! -x "$out/bin/wpredd" || ! -x "$out/bin/wpredbench" || "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]]; then
	rm -f "$out/bin/stamp"
	(cd "$root" && go build -o "$out/bin/wpredd" ./cmd/wpredd) >&2
	(cd "$root/wpredbench" && go build -o "$out/bin/wpredbench" .) >&2
	echo "$stamp" >"$out/bin/stamp"
fi

exec "$out/bin/wpredbench" -root "$root" "$@"
