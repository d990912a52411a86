#!/bin/sh
# Builds the benchmark from source and runs one workload; see README.md.
# Run from the root of a checkout:
#   sh perfbench/run.sh --workload smoke --seed 1 --seconds 25 --trace 0
exec dune exec --root . --cache=disabled --display=quiet ./perfbench/workload.exe -- "$@"
