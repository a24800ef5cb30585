#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the
# given arguments (see e2e.ml).  Run from the root of the repository:
#
#   bash e2ebench/run.sh --workload bootstrap --seed 42 --seconds 18 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) with the
# shared dune cache off, and temporary files stay under it, so a run
# writes nothing outside the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/e2e.ml ]; then
  echo "e2ebench/run.sh: run from the root of a Cinnamon checkout" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$build_dir" in /*) ;; *) build_dir="$PWD/$build_dir" ;; esac
mkdir -p "$build_dir/tmp"
export TMPDIR="$build_dir/tmp" DUNE_CACHE=disabled

dune build --root . --build-dir "$build_dir" ./e2ebench/e2e.exe >&2
exec "$build_dir/default/e2ebench/e2e.exe" "$@"
