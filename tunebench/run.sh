#!/bin/sh
# Build tunebench and the ifko CLI from this checkout, then run one
# benchmark workload:
#   sh tunebench/run.sh --workload tune-oc --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./tunebench/main.exe ./bin/ifko_cli.exe 1>&2
exec ./_build/default/tunebench/main.exe --ifko ./_build/default/bin/ifko_cli.exe "$@"
