#!/usr/bin/env bash
# Observability smoke test: a short traced dramctrl run must produce
# well-formed Chrome trace-event JSON (parsed strictly by validate
# -trace-check, which also cross-checks span/burst/refresh counts), the
# bytes must be identical across identical runs, on one channel and on four
# behind a crossbar, and a traced run killed mid-flight and resumed from its
# last checkpoint must reproduce the uninterrupted trace byte for byte.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dramctrl" ./cmd/dramctrl
go build -o "$workdir/validate" ./cmd/validate

echo "== traced run parses as strict Chrome trace JSON"
args=(-spec DDR3-1600-x64 -pattern random -reads 67 -requests 20000 -seed 7)
"$workdir/dramctrl" "${args[@]}" -trace "$workdir/a.json" >/dev/null
"$workdir/validate" -trace-check "$workdir/a.json"

echo "== identical rerun is byte-identical"
"$workdir/dramctrl" "${args[@]}" -trace "$workdir/b.json" >/dev/null
cmp "$workdir/a.json" "$workdir/b.json"

echo "== 4-channel traced run parses and reconciles too, and reruns to the same bytes"
"$workdir/dramctrl" "${args[@]}" -channels 4 -trace "$workdir/c4.json" >/dev/null
"$workdir/validate" -trace-check "$workdir/c4.json"
"$workdir/dramctrl" "${args[@]}" -channels 4 -trace "$workdir/c4b.json" >/dev/null
cmp "$workdir/c4.json" "$workdir/c4b.json"

echo "== killed-and-resumed traced run reproduces the uninterrupted trace"
# The cycle model is slow enough per request that the kill lands mid-run
# at a modest request count (and hence a modest trace file).
kargs=(-spec DDR3-1600-x64 -model cycle -pattern random -reads 67 -requests 300000 -seed 7)
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/ref.json" >/dev/null
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/crash.json" \
    -checkpoint "$workdir/run.ckpt" -checkpoint-every 50000 \
    >/dev/null 2>"$workdir/victim.log" &
pid=$!
for _ in $(seq 1 300); do
    [ -f "$workdir/run.ckpt" ] && break
    sleep 0.1
done
if ! [ -f "$workdir/run.ckpt" ]; then
    echo "FAIL: no checkpoint appeared before the kill" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/crash.json" \
    -checkpoint "$workdir/run.ckpt" -resume >/dev/null 2>"$workdir/resume.log"
grep -q "supervisor: resumed from" "$workdir/resume.log" || {
    echo "FAIL: resume did not load the checkpoint:" >&2
    cat "$workdir/resume.log" >&2
    exit 1
}
if ! cmp "$workdir/ref.json" "$workdir/crash.json"; then
    echo "FAIL: resumed trace differs from the uninterrupted run" >&2
    exit 1
fi
"$workdir/validate" -trace-check "$workdir/ref.json"

echo "PASS: trace smoke"
