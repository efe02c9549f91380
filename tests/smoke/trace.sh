#!/bin/sh
# Trace smoke: a traced run writes a non-empty VCD and a source-level
# replay, and a campaign traces and replays its first non-benign sites.
#
# usage: trace.sh HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
mkdir -p "$out"
"$hlsavc" trace "$design" --feed "$feed" --vcd="$out/trace-smoke.vcd"
test -s "$out/trace-smoke.vcd"
"$hlsavc" faultsim "$design" --campaign --trace-nonbenign --feed "$feed" \
  --trace-dir="$out/traces" --trace-max-sites=3
