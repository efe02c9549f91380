#!/bin/sh
# Mine smoke: golden capture -> rank -> emit.
#
# usage: mine.sh HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
mkdir -p "$out"
"$hlsavc" mine "$design" --feed "$feed" > "$out/mine-1.txt"
"$hlsavc" mine "$design" --feed "$feed" > "$out/mine-2.txt"
"$hlsavc" mine "$design" --feed "$feed" --threads=4 > "$out/mine-4.txt"
# Ranking must be byte-identical across runs and thread counts.
cmp "$out/mine-1.txt" "$out/mine-2.txt"
cmp "$out/mine-1.txt" "$out/mine-4.txt"
# At least one candidate survives the golden filter, and the top-ranked
# checker detects sites the baseline misses.
grep -E "[1-9][0-9]* survivor" "$out/mine-1.txt"
awk -F'|' '$2+0 == 1 { ok = ($7 + 0) > 0 } END { exit !ok }' "$out/mine-1.txt"
# --emit writes the top-ranked bounds back as source asserts, and the
# annotated program still runs clean on the golden feed.
"$hlsavc" mine "$design" --feed "$feed" --emit="$out/mine-emitted.c" --top=6 \
  > "$out/mine-emit.txt"
grep -q "assert(1 <= w && w <= 8);" "$out/mine-emitted.c"
"$hlsavc" simulate "$out/mine-emitted.c" --feed "$feed" > "$out/mine-emitted-run.txt"
grep -q "completed" "$out/mine-emitted-run.txt"
# Threaded mining emits the same bound (under the sanitizers, this is the
# multi-threaded emit path).
"$hlsavc" mine "$design" --feed "$feed" --threads=4 --emit="$out/mine-emitted-4.c" \
  > "$out/mine-emit-4.txt"
grep -E "[1-9][0-9]* survivor" "$out/mine-emit-4.txt"
grep -q "assert(1 <= w && w <= 8);" "$out/mine-emitted-4.c"
