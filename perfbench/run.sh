#!/bin/sh
# Builds the server and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#   sh perfbench/run.sh --workload dd-warm --seed 1 --seconds 20 --trace 0
#   sh perfbench/run.sh --self-test
# Build output goes to .bench_build/ in the repository root.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/serve ]; then
  echo "perfbench: run from the root of a qdt checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 2
fi
build=.bench_build
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  ./bin/qdt_cli.exe ./perfbench/bench.exe >&2
exec "$build/default/perfbench/bench.exe" --server "$build/default/bin/qdt_cli.exe" "$@"
