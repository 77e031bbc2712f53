#!/usr/bin/env bash
# Build the serving-plane benchmark from source, then run it with the
# given arguments (see perfbench/README.md).  Run from the repository
# root.  Build output goes to stderr, so stdout's last line stays the
# result object.
set -euo pipefail
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
