#!/bin/sh
# Backstop smoke: a campaign on a design without hang-timeout sites
# prints the same bytes on both engines, at the default cycle backstop
# (max(10000, 16 x golden cycles) = 10000 for these designs) and at 4x
# it. Each PATTERN must match a row of the report.
#
# usage: backstop.sh HLSAVC DESIGN.c FEED OUTDIR PATTERN...
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
shift 4
mkdir -p "$out"
for engine in interpreter compiled; do
  "$hlsavc" faultsim "$design" --campaign --engine=$engine \
    --feed "$feed" > "$out/$engine.txt"
  "$hlsavc" faultsim "$design" --campaign --engine=$engine \
    --max-cycles=40000 --feed "$feed" > "$out/$engine-4x.txt"
done
for pattern in "$@"; do
  if ! grep -q "$pattern" "$out/interpreter.txt"; then
    echo "no row matches: $pattern" >&2
    cat "$out/interpreter.txt" >&2
    exit 1
  fi
done
cmp "$out/interpreter.txt" "$out/compiled.txt"
cmp "$out/interpreter.txt" "$out/interpreter-4x.txt"
cmp "$out/interpreter.txt" "$out/compiled-4x.txt"
