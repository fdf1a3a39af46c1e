#!/usr/bin/env bash
# Build mmc and mmcbench from this checkout's sources, then run the
# benchmark with the given arguments, e.g.
#
#   bash mmcbench/run.sh --workload warm-exec --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/mmc.ml ] || [ ! -d test/golden ]; then
  echo "mmcbench: $(pwd) is not a checkout of the mmc repository" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . bin/mmc.exe mmcbench/mmcbench.exe 1>&2
exec ./_build/default/mmcbench/mmcbench.exe "$@"
