#!/bin/sh
# End-to-end smoke test for the sync daemon (DESIGN.md §10).
#
#   1. build a small collection and four divergent client replicas
#   2. start `fsync serve` on an ephemeral TCP port, with the admin
#      socket, the structured event log and the per-session trace
#      stream enabled (DESIGN.md §9)
#   3. run four pulls concurrently — one of them through an
#      injected-fault link (`--faults corrupt`), which must converge
#      by retrying — while a scraper polls the admin socket and must
#      observe fsync_sessions_active > 0 mid-load
#   4. verify every replica is byte-for-byte identical to the served
#      collection (including deletion of stale files), the status
#      document validates as fsyncd-status/1, and `fsync trace report`
#      joins client 4's trace with the daemon's stream
#   5. SIGTERM the daemon and check it reports a clean shutdown and a
#      complete event log
#
# Run from the repository root (make serve-smoke does); requires only
# POSIX sh + a built bin/fsync.exe.  Telemetry outputs are copied to
# SMOKE_*.jsonl / SMOKE_*.txt in the working directory so CI can
# upload them as artifacts.
set -eu

FSYNC=${FSYNC:-_build/default/bin/fsync.exe}
BENCHJSON=${BENCHJSON:-_build/default/tools/benchjson/benchjson.exe}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/fsync-serve-smoke.XXXXXX")
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() { echo "serve-smoke: FAIL: $1" >&2; exit 1; }

[ -x "$FSYNC" ] || fail "$FSYNC not built (run: dune build bin/fsync.exe)"

# ---- 1. collection and four divergent replicas -----------------------
mkdir -p "$WORK/server/src"
seq 1 3000 > "$WORK/server/src/numbers.txt"
seq 1 400 | sed 's/^/line /' > "$WORK/server/notes.txt"
printf 'hello fsyncd\n' > "$WORK/server/hello.txt"

for i in 1 2 3 4; do
  mkdir -p "$WORK/client$i/src"
  # numbers.txt: locally edited (a different slice dropped per client)
  sed "${i}0,${i}5d" "$WORK/server/src/numbers.txt" \
    > "$WORK/client$i/src/numbers.txt"
  # notes.txt: client 1 & 2 up to date, 3 & 4 missing it entirely
  if [ "$i" -le 2 ]; then cp "$WORK/server/notes.txt" "$WORK/client$i/"; fi
  # a stale file the server no longer has: must be deleted by --apply
  printf 'stale %s\n' "$i" > "$WORK/client$i/gone.txt"
done

# ---- 2. daemon on an ephemeral port, telemetry on --------------------
"$FSYNC" serve "$WORK/server" --host 127.0.0.1 --port 0 --metrics \
  --admin-port 0 --event-log "$WORK/events.jsonl" \
  --trace-json "$WORK/server_trace.jsonl" \
  2> "$WORK/serve.log" &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/^fsyncd: serving .* on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "$WORK/serve.log" | head -n 1)
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died at startup:
$(cat "$WORK/serve.log")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported its port"
ADMIN_PORT=""
for _ in $(seq 1 50); do
  ADMIN_PORT=$(sed -n 's/^fsyncd: admin on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "$WORK/serve.log" | head -n 1)
  [ -n "$ADMIN_PORT" ] && break
  sleep 0.1
done
[ -n "$ADMIN_PORT" ] || fail "daemon never reported its admin port"
echo "serve-smoke: daemon up on 127.0.0.1:$PORT (admin $ADMIN_PORT, \
pid $DAEMON_PID)"

# ---- 3. four concurrent pulls, one over a faulty link, scraped live --
# The scraper races the pulls: it must catch the daemon with at least
# one live session (fsync_sessions_active > 0) while they run.
(
  for _ in $(seq 1 200); do
    if "$FSYNC" admin "127.0.0.1:$ADMIN_PORT" metrics 2>/dev/null \
      | grep -q '^fsync_sessions_active [1-9]'; then
      : > "$WORK/saw_active"
      exit 0
    fi
    sleep 0.05
  done
) &
SCRAPE_PID=$!

PIDS=""
for i in 1 2 3; do
  "$FSYNC" pull "127.0.0.1:$PORT" "$WORK/client$i" --apply -q \
    > "$WORK/pull$i.log" 2>&1 &
  PIDS="$PIDS $!"
done
"$FSYNC" pull "127.0.0.1:$PORT" "$WORK/client4" --apply -q \
  --faults corrupt=0.03 --seed 11 --attempts 12 \
  --trace-json "$WORK/client4_trace.jsonl" \
  > "$WORK/pull4.log" 2>&1 &
PIDS="$PIDS $!"

for pid in $PIDS; do
  wait "$pid" || fail "a pull failed:
$(cat "$WORK"/pull*.log)"
done
wait "$SCRAPE_PID" 2>/dev/null || true
[ -f "$WORK/saw_active" ] \
  || fail "admin scrape never observed fsync_sessions_active > 0 mid-load"
echo "serve-smoke: mid-load scrape saw live sessions"

# ---- 4. replicas must mirror the collection exactly ------------------
for i in 1 2 3 4; do
  diff -r "$WORK/server" "$WORK/client$i" >/dev/null 2>&1 \
    || fail "client$i differs from the served collection:
$(diff -r "$WORK/server" "$WORK/client$i" 2>&1 | head -5)"
done
echo "serve-smoke: 4 replicas byte-identical (incl. stale-file deletion)"

# The status document must validate as fsyncd-status/1 (same strict
# reader as the bench exports), and `fsync top` must render against the
# live daemon.
"$FSYNC" admin "127.0.0.1:$ADMIN_PORT" status > "$WORK/status.json" \
  || fail "admin status request failed"
"$BENCHJSON" "$WORK/status.json" > /dev/null \
  || fail "status document failed fsyncd-status/1 validation:
$(cat "$WORK/status.json")"
"$FSYNC" top "127.0.0.1:$ADMIN_PORT" --count 1 > "$WORK/top.log" \
  || fail "fsync top failed"
grep -q "^fsyncd 127\.0\.0\.1:$ADMIN_PORT" "$WORK/top.log" \
  || fail "fsync top rendered no header:
$(cat "$WORK/top.log")"
echo "serve-smoke: status document schema-valid, top renders"

# Client 4's --trace-json and the daemon's stream must join on the
# wire-carried trace id into one merged session whose phase spans cover
# >= 95% of the session wall time on both roles.
"$FSYNC" trace report "$WORK/client4_trace.jsonl" \
  "$WORK/server_trace.jsonl" > "$WORK/trace_report.txt" \
  || fail "trace report failed:
$(cat "$WORK/trace_report.txt")"
awk '
  /roles: client, server/ { merged = 1; next }
  merged == 1 && /phase coverage/ {
    cov = $NF; sub(/%/, "", cov)
    if (cov + 0 >= 95.0) ok = 1
    merged = 0
  }
  END { exit !ok }
' "$WORK/trace_report.txt" \
  || fail "no merged client+server trace with >=95% phase coverage:
$(cat "$WORK/trace_report.txt")"
echo "serve-smoke: client+server traces joined ($(grep -c '^trace ' \
  "$WORK/trace_report.txt") session(s) reported)"

# ---- 5. clean shutdown ----------------------------------------------
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
grep -q "shut down after" "$WORK/serve.log" \
  || fail "no clean-shutdown line in serve.log:
$(cat "$WORK/serve.log")"
COMPLETED=$(sed -n 's/.*(\([0-9][0-9]*\) completed.*/\1/p' "$WORK/serve.log")
[ "${COMPLETED:-0}" -ge 4 ] || fail "expected >=4 completed sessions, got \
'${COMPLETED:-none}'"
# The event log must carry the whole lifecycle, one JSON object per line.
for ev in session_start session_end daemon_stop; do
  grep -q "\"event\":\"$ev\"" "$WORK/events.jsonl" \
    || fail "event log missing $ev:
$(cat "$WORK/events.jsonl")"
done
STARTS=$(grep -c '"event":"session_start"' "$WORK/events.jsonl")
ENDS=$(grep -c '"event":"session_end"' "$WORK/events.jsonl")
[ "$STARTS" -ge 4 ] || fail "event log has $STARTS session_start events, \
expected >= 4"
[ "$STARTS" -eq "$ENDS" ] || fail "event log unbalanced: $STARTS starts, \
$ENDS ends"
echo "serve-smoke: daemon shut down cleanly, event log complete \
($STARTS sessions)"

# Keep the telemetry outputs where CI can pick them up as artifacts.
cp "$WORK/events.jsonl" SMOKE_events.jsonl
cp "$WORK/server_trace.jsonl" SMOKE_server_trace.jsonl
cp "$WORK/client4_trace.jsonl" SMOKE_client4_trace.jsonl
cp "$WORK/trace_report.txt" SMOKE_trace_report.txt
cp "$WORK/status.json" SMOKE_status.json

# ---- 6. store-backed variant: dedup push + warm restart --------------
# Serve with --store, pull once and push an overlapping multi-file tree
# (in at most 4 round trips: pushes are batched per turn; the store
# already holds the served chunks, so the push must dedup), kill the
# daemon, restart it over the same store root and pull again: the
# signature cache must warm-start from the persisted vectors.
STORE="$WORK/store"

start_store_daemon() {  # $1 = log tag; sets DAEMON_PID and PORT
  "$FSYNC" serve "$WORK/server" --host 127.0.0.1 --port 0 --store "$STORE" \
    > "$WORK/$1.out" 2> "$WORK/$1.log" &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/.* on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
      "$WORK/$1.log" | head -n 1)
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "store daemon died at startup:
$(cat "$WORK/$1.log")"
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "store daemon never reported its port"
}

stop_daemon() {
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
}

# Two identical outdated replicas: one pull per daemon lifetime, so the
# second run repeats exactly the first run's signature lookups.
for i in 5 6; do
  mkdir -p "$WORK/client$i/src"
  sed '100,140d' "$WORK/server/src/numbers.txt" \
    > "$WORK/client$i/src/numbers.txt"
  cp "$WORK/server/notes.txt" "$WORK/client$i/"
done
# An upload tree that is mostly served content plus one new file.
mkdir -p "$WORK/pushsrc"
cp -R "$WORK/server/." "$WORK/pushsrc/"
printf 'brand new content\n' > "$WORK/pushsrc/extra.txt"

start_store_daemon serve_store1
grep -q "fsyncd: store $STORE" "$WORK/serve_store1.log" \
  || fail "daemon did not report its store"
"$FSYNC" pull "127.0.0.1:$PORT" "$WORK/client5" --apply -q \
  > "$WORK/pull5.log" 2>&1 || fail "store-backed pull failed:
$(cat "$WORK/pull5.log")"
"$FSYNC" push "127.0.0.1:$PORT" "$WORK/pushsrc" -q \
  > "$WORK/push.log" 2>&1 || fail "push failed:
$(cat "$WORK/push.log")"
PUSH_DEDUPED=$(sed -n 's/.*, \([0-9]*\) bytes deduped.*/\1/p' "$WORK/push.log")
[ "${PUSH_DEDUPED:-0}" -gt 0 ] || fail "push deduped nothing against the \
store:
$(cat "$WORK/push.log")"
# Every file of a push moves in lockstep (fsyncd/1 rev 5): hello,
# begin/need, data/ack+bye — at most 4 round trips whatever the count.
PUSH_FILES=$(find "$WORK/pushsrc" -type f | wc -l | tr -d ' ')
PUSH_RTS=$(sed -n 's/.*, \([0-9][0-9]*\) round trips$/\1/p' "$WORK/push.log")
[ -n "$PUSH_RTS" ] && [ "$PUSH_RTS" -le 4 ] || fail "push of $PUSH_FILES \
files took ${PUSH_RTS:-an unreported number of} round trips (max 4):
$(cat "$WORK/push.log")"
[ "$PUSH_FILES" -gt 1 ] || fail "pushsrc holds a single file"
echo "serve-smoke: push of $PUSH_FILES files in $PUSH_RTS round trips"
stop_daemon
MISSES=$(sed -n 's/.*sig cache: [0-9]* hits, \([0-9]*\) misses.*/\1/p' \
  "$WORK/serve_store1.out")
[ "${MISSES:-0}" -gt 0 ] || fail "first run computed no signature vectors:
$(cat "$WORK/serve_store1.out")"

# Kill/restart over the same root: vectors must come back warm.
start_store_daemon serve_store2
SEEDED=$(sed -n 's/.*(\([0-9][0-9]*\) sig vectors seeded).*/\1/p' \
  "$WORK/serve_store2.log")
[ "${SEEDED:-0}" -ge "$MISSES" ] || fail "restart seeded ${SEEDED:-0} \
vectors, first run computed $MISSES"
"$FSYNC" pull "127.0.0.1:$PORT" "$WORK/client6" --apply -q \
  > "$WORK/pull6.log" 2>&1 || fail "post-restart pull failed:
$(cat "$WORK/pull6.log")"
stop_daemon
diff -r "$WORK/server" "$WORK/client6" >/dev/null 2>&1 \
  || fail "client6 differs after the warm-restart pull"
WARM_RATE=$(sed -n 's/.*warm rate \([0-9.]*\)$/\1/p' "$WORK/serve_store2.out")
awk -v r="${WARM_RATE:-0}" 'BEGIN { exit !(r >= 0.9) }' \
  || fail "warm hit rate ${WARM_RATE:-none} < 0.9 after restart:
$(cat "$WORK/serve_store2.out")"
STORE_DEDUPED=$(sed -n \
  's/.*manifests, \([0-9]*\) bytes deduped$/\1/p' "$WORK/serve_store2.out")
[ "${STORE_DEDUPED:-0}" -gt 0 ] || fail "restarted store re-ingested \
without dedup:
$(cat "$WORK/serve_store2.out")"
echo "serve-smoke: warm restart rate $WARM_RATE, $STORE_DEDUPED bytes deduped"

# ---- 7. store CLI: stats clean, fsck clean ---------------------------
"$FSYNC" store stats "$STORE" > "$WORK/store_stats.log" 2>&1 \
  || fail "store stats failed:
$(cat "$WORK/store_stats.log")"
"$FSYNC" store fsck "$STORE" > "$WORK/store_fsck.log" 2>&1 \
  || fail "store fsck found damage:
$(cat "$WORK/store_fsck.log")"
echo "serve-smoke: PASS ($(sed -n 's/^daemon: //p' "$WORK/serve.log"))"
