#!/bin/sh
# Build the ledger from source and run it, from the repository root:
#   sh ledger/run.sh --workload job-default --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the ledger's own output is all that
# reaches stdout. The dune cache is off so nothing is written outside the
# checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
