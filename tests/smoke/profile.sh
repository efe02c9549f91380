#!/bin/sh
# Profile smoke: `hlsavc profile` prints the source-level tables and
# writes a Chrome trace that the in-tree checker validates.
#
# usage: profile.sh HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
mkdir -p "$out"
"$hlsavc" --version
"$hlsavc" profile "$design" --feed "$feed" \
  --trace-out="$out/profile-smoke.trace.json" \
  --profile-json="$out/profile-smoke.json" > "$out/profile-smoke.txt"
cat "$out/profile-smoke.txt"
grep -q "Cycle attribution" "$out/profile-smoke.txt"
grep -q "Hottest FSM states" "$out/profile-smoke.txt"
"$hlsavc" checktrace "$out/profile-smoke.trace.json"
