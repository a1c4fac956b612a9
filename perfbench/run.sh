#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload cold-solve|hot-json|hot-binary|routed \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of the repository.  Build output goes to stderr; the
# last line of stdout is the result object (see perfbench/CATALOGUE.md).
set -euo pipefail
dune build --root . ./bin/psc.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --psc ./_build/default/bin/psc.exe "$@"
