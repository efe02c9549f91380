#!/bin/sh
# Campaign service smoke: a live hlsavd runs two concurrent sweeps, one
# of which SIGKILLs its own workers at two sites (respawn + requeue of
# the blamed site), and both reports are byte-identical to the
# single-process hlsavc reference. Workers run their sites compiled.
# Then identical sequential sweeps must run on parked workers, with the
# same bytes. Exits 77 (skipped) when no host C compiler is on PATH.
#
# usage: service.sh HLSAVD HLSAVC DESIGN.c FEED OUTDIR
set -eu
hlsavd=$1
hlsavc=$2
design=$3
feed=$4
out=$5
if ! command -v cc >/dev/null 2>&1 && ! command -v gcc >/dev/null 2>&1 \
   && ! command -v clang >/dev/null 2>&1; then
  echo "no host C compiler on PATH; skipping campaign service smoke"
  exit 77
fi
rm -rf "$out"
mkdir -p "$out"
sock="$out/d.sock"
"$hlsavc" faultsim "$design" --campaign --seed=7 --feed "$feed" > "$out/svc-ref.txt"
"$hlsavd" serve --socket="$sock" --work-dir="$out/work" \
  --jobs=2 --workers=2 --backoff-base-ms=1 --backoff-cap-ms=20 &
daemon=$!
# Never leave the daemon behind, whatever check fails.
trap 'kill "$daemon" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  "$hlsavd" status --socket="$sock" >/dev/null 2>&1 && break
  sleep 0.1
done
"$hlsavd" status --socket="$sock"
"$hlsavd" submit --socket="$sock" --design="$design" --seed=7 --feed "$feed" \
  --out="$out/svc-a.txt" --quiet &
job_a=$!
"$hlsavd" submit --socket="$sock" --design="$design" --seed=7 --feed "$feed" \
  --crash-at-site=3 --crash-at-site=7 --out="$out/svc-b.txt" --quiet &
job_b=$!
wait "$job_a"
wait "$job_b"
cmp "$out/svc-ref.txt" "$out/svc-a.txt"
cmp "$out/svc-ref.txt" "$out/svc-b.txt"
# A compiler exists, so workers run their sites compiled: a silent fall
# back to the interpreter fails here.
"$hlsavd" metrics --socket="$sock" > "$out/svc-metrics.json"
compiled=$(grep -o '"sites_compiled": [0-9]*' "$out/svc-metrics.json" | grep -o '[0-9]*$')
test "${compiled:-0}" -gt 0
# Identical sequential sweeps run on parked workers. Each of the two
# executors keeps its own pool, and the crash sweep parked none, so the
# third of them is the first sure to find one whichever executor takes it.
for n in 1 2 3; do
  "$hlsavd" submit --socket="$sock" --design="$design" --seed=7 --feed "$feed" \
    --out="$out/svc-again$n.txt" --quiet
  cmp "$out/svc-ref.txt" "$out/svc-again$n.txt"
done
"$hlsavd" metrics --socket="$sock" > "$out/svc-metrics.json"
reused=$(grep -o '"workers_reused": [0-9]*' "$out/svc-metrics.json" | grep -o '[0-9]*$')
test "${reused:-0}" -gt 0
"$hlsavd" status --socket="$sock"
"$hlsavd" shutdown --socket="$sock"
wait "$daemon"
trap - EXIT
test ! -e "$sock"
