#!/bin/sh
# Build the benchmark from source and run it; arguments go to main.exe:
#   sh perfbench/run.sh --workload t1_virt --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a Nepal source tree" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
