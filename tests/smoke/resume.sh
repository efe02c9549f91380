#!/bin/sh
# Campaign smoke and kill -> resume determinism: a fault campaign runs to
# its report, journaled or not; a journal cut after three sites plus a
# torn line (what a SIGKILL mid-sweep leaves) resumes to the same bytes,
# on one thread and on four.
#
# usage: resume.sh HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavc=$1
design=$2
feed=$3
out=$4
mkdir -p "$out"
"$hlsavc" faultsim "$design" --campaign --feed "$feed" > "$out/campaign.txt"
"$hlsavc" faultsim "$design" --campaign --feed "$feed" --journal="$out/resume.jsonl" \
  > "$out/full.txt"
# Simulate a SIGKILL mid-sweep: header + 3 sites + a torn line.
head -n 4 "$out/resume.jsonl" > "$out/killed.jsonl"
printf '{"site":9,"outc' >> "$out/killed.jsonl"
cp "$out/killed.jsonl" "$out/killed4.jsonl"  # for a 4-thread resume from the cut
"$hlsavc" faultsim "$design" --campaign --resume --feed "$feed" \
  --journal="$out/killed.jsonl" > "$out/resumed.txt"
cmp "$out/full.txt" "$out/resumed.txt"
"$hlsavc" faultsim "$design" --campaign --resume --feed "$feed" --threads=4 \
  --journal="$out/killed.jsonl" > "$out/resumed4.txt"
cmp "$out/full.txt" "$out/resumed4.txt"
"$hlsavc" faultsim "$design" --campaign --resume --feed "$feed" --threads=4 \
  --journal="$out/killed4.jsonl" > "$out/resumed4-cut.txt"
cmp "$out/full.txt" "$out/resumed4-cut.txt"
cmp "$out/full.txt" "$out/campaign.txt"
