#!/bin/sh
# Compiled-engine smoke: a simulation and a fault campaign print the same
# bytes on the interpreter and on the compiled engine, and the compiled
# engine really runs (no fallback note ending "interpreting"). Exits 77
# (skipped) when no host C compiler is on PATH.
#
# usage: engines.sh HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
if ! command -v cc >/dev/null 2>&1 && ! command -v gcc >/dev/null 2>&1 \
   && ! command -v clang >/dev/null 2>&1; then
  echo "no host C compiler on PATH; skipping compiled-engine smoke"
  exit 77
fi
mkdir -p "$out"
"$hlsavc" simulate "$design" --engine=interpreter --feed "$feed" > "$out/engine-interp.txt"
"$hlsavc" simulate "$design" --engine=compiled --feed "$feed" \
  > "$out/engine-compiled.txt" 2> "$out/engine-note.txt"
cmp "$out/engine-interp.txt" "$out/engine-compiled.txt"
# A compiler exists, so the compiled engine must actually have run: any
# fallback note ("...; interpreting") is a failure here.
if grep -q "interpreting" "$out/engine-note.txt"; then
  echo "compiled engine unexpectedly fell back:"
  cat "$out/engine-note.txt"
  exit 1
fi
# Campaigns: every faulted site runs compiled (any fallback note ends
# "interpreting"), and the report is byte-identical to the interpreter's.
"$hlsavc" faultsim "$design" --campaign --engine=interpreter --feed "$feed" \
  > "$out/campaign-interp.txt"
"$hlsavc" faultsim "$design" --campaign --engine=compiled --feed "$feed" \
  > "$out/campaign-compiled.txt" 2> "$out/campaign-note.txt"
cmp "$out/campaign-interp.txt" "$out/campaign-compiled.txt"
cat "$out/campaign-note.txt"
if grep -q "interpreting" "$out/campaign-note.txt"; then
  echo "a faulted site fell back to the interpreter"
  exit 1
fi
