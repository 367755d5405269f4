#!/usr/bin/env bash
# Recovery smoke test: a supervised dramctrl run is SIGKILLed mid-flight, then
# resumed from its last periodic checkpoint; the resumed run's final JSON
# statistics must be byte-identical to an uninterrupted reference run. A
# corrupted checkpoint must be rejected with a clean error, not a panic or a
# silently wrong resume. Resuming a run that already finished must change
# nothing: same simulated line and an untouched checkpoint file, on one
# channel and on four. Resuming under another configuration must be refused
# with the component and the field named, and the checkpoint left alone.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dramctrl" ./cmd/dramctrl

# A run long enough (in host time) that the kill lands mid-flight.
args=(-spec DDR3-1600-x64 -pattern random -reads 67 -requests 3000000 -seed 7)

echo "== reference: uninterrupted run"
"$workdir/dramctrl" "${args[@]}" -json "$workdir/ref.json" >/dev/null

echo "== victim: periodic checkpoints, then kill -9"
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/run.ckpt" -checkpoint-every 50000 \
    -json "$workdir/victim.json" >/dev/null 2>"$workdir/victim.log" &
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
if [ -f "$workdir/victim.json" ]; then
    echo "FAIL: victim finished before the kill; grow -requests" >&2
    exit 1
fi
cp "$workdir/run.ckpt" "$workdir/corrupt.ckpt"

echo "== resume from the last good checkpoint"
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/run.ckpt" -resume \
    -json "$workdir/resumed.json" >/dev/null 2>"$workdir/resume.log"
grep -q "supervisor: resumed from" "$workdir/resume.log" || {
    echo "FAIL: resume did not load the checkpoint:" >&2
    cat "$workdir/resume.log" >&2
    exit 1
}

echo "== compare final statistics"
if ! cmp "$workdir/ref.json" "$workdir/resumed.json"; then
    echo "FAIL: resumed statistics differ from the uninterrupted run" >&2
    exit 1
fi
echo "resumed run is byte-identical to the uninterrupted run"

echo "== corrupted checkpoint must fail cleanly"
# Overwrite one byte in the middle of the body with a different value.
size=$(wc -c <"$workdir/corrupt.ckpt")
off=$((size / 2))
orig=$(dd if="$workdir/corrupt.ckpt" bs=1 skip="$off" count=1 status=none | od -An -tu1 | tr -d ' ')
if [ "$orig" = "255" ]; then repl='\x00'; else repl='\xff'; fi
printf "$repl" | dd of="$workdir/corrupt.ckpt" bs=1 seek="$off" conv=notrunc status=none
set +e
"$workdir/dramctrl" "${args[@]}" \
    -checkpoint "$workdir/corrupt.ckpt" -resume >/dev/null 2>"$workdir/corrupt.log"
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "FAIL: corrupted checkpoint was accepted" >&2
    exit 1
fi
grep -q "checksum mismatch" "$workdir/corrupt.log" || {
    echo "FAIL: corrupted checkpoint did not report a checksum mismatch:" >&2
    cat "$workdir/corrupt.log" >&2
    exit 1
}
echo "corrupted checkpoint rejected cleanly (exit $rc)"

echo "== resuming a finished run is idempotent"
for ch in 1 4; do
    fin=(-pattern random -requests 20000 -channels "$ch" -checkpoint "$workdir/fin$ch.ckpt")
    "$workdir/dramctrl" "${fin[@]}" 2>/dev/null | grep '^simulated' >"$workdir/fin$ch.0"
    cp "$workdir/fin$ch.ckpt" "$workdir/fin$ch.ckpt.0"
    for i in 1 2; do
        "$workdir/dramctrl" "${fin[@]}" -resume 2>/dev/null | grep '^simulated' >"$workdir/fin$ch.$i"
        if ! cmp "$workdir/fin$ch.0" "$workdir/fin$ch.$i" || ! cmp "$workdir/fin$ch.ckpt" "$workdir/fin$ch.ckpt.0"; then
            echo "FAIL: -channels $ch resume $i of a finished run moved the end tick or the checkpoint" >&2
            exit 1
        fi
    done
    echo "-channels $ch: $(cat "$workdir/fin$ch.0"), twice more"
done

echo "== resuming under another configuration is refused, by component and field"
page=(-pattern random -requests 20000 -checkpoint "$workdir/page.ckpt")
"$workdir/dramctrl" "${page[@]}" -page open >/dev/null 2>&1
cp "$workdir/page.ckpt" "$workdir/page.ckpt.0"
set +e
"$workdir/dramctrl" "${page[@]}" -page closed -resume >/dev/null 2>"$workdir/page.log"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: -page closed resumed a -page open checkpoint (exit $rc, want 1)" >&2
    exit 1
fi
if ! grep -q 'mc0' "$workdir/page.log" || ! grep -q 'Page' "$workdir/page.log"; then
    echo "FAIL: the refusal does not name mc0 and Page:" >&2
    cat "$workdir/page.log" >&2
    exit 1
fi
if ! cmp "$workdir/page.ckpt" "$workdir/page.ckpt.0"; then
    echo "FAIL: the refused resume changed the checkpoint file" >&2
    exit 1
fi
echo "refused: $(grep -o 'mc0: .*' "$workdir/page.log")"

echo "PASS: recovery smoke"
