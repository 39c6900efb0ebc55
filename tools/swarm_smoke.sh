#!/bin/sh
# End-to-end smoke test for the swarm layer (DESIGN.md §13).
#
#   1. build three divergent replicas: two sharing a base but holding a
#      concurrent edit of the same path (a genuine conflict), one empty
#   2. fork three `fsync swarm serve` peers on ephemeral TCP ports
#   3. a fourth replica runs `fsync swarm join` against all three until
#      every exchange short-circuits — gossip is bidirectional, so the
#      joiner both collects and relays every peer's updates
#   4. assert all four replicas are byte-identical (vector tables
#      included), the concurrent edit surfaced as a
#      `.fsync-conflict.<peer>` sibling with both versions preserved,
#      and a plain `fsync pull` against a swarm port retrieves
#      the converged collection (one port, both dialects), while a plain
#      `fsync push` to a swarm port fails and leaves the replica
#      byte-unchanged (a swarm port is read-only to plain clients)
#   5. SIGTERM the daemons and check each reports a clean shutdown with
#      at least one completed gossip session
#
# Run from the repository root (make swarm-smoke does); requires only
# POSIX sh + a built bin/fsync.exe.
set -eu

FSYNC=${FSYNC:-_build/default/bin/fsync.exe}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/fsync-swarm-smoke.XXXXXX")
PIDS=""

cleanup() {
  for pid in $PIDS; do
    if kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() { echo "swarm-smoke: FAIL: $1" >&2; exit 1; }

[ -x "$FSYNC" ] || fail "$FSYNC not built (run: dune build bin/fsync.exe)"

# ---- 1. three divergent replicas -------------------------------------
mkdir -p "$WORK/p1/src" "$WORK/p2/src" "$WORK/p3" "$WORK/joiner"
seq 1 500 > "$WORK/p1/src/common.txt"
cp "$WORK/p1/src/common.txt" "$WORK/p2/src/common.txt"
printf 'only on p1\n' > "$WORK/p1/p1-only.txt"
printf 'only on p2\n' > "$WORK/p2/p2-only.txt"
printf 'clash from p1\n' > "$WORK/p1/clash.txt"
printf 'clash from p2\n' > "$WORK/p2/clash.txt"

# ---- 2. three forked swarm peers on ephemeral ports ------------------
for i in 1 2 3; do
  "$FSYNC" swarm serve "$WORK/p$i" --id "p$i" --host 127.0.0.1 --port 0 \
    > "$WORK/serve$i.log" 2>&1 &
  pid=$!
  PIDS="$PIDS $pid"
  eval "PID$i=$pid"
done

port_of() {  # $1 = log file
  sed -n 's/^swarm peer .* on 127\.0\.0\.1:\([0-9][0-9]*\) .*$/\1/p' "$1" \
    | head -n 1
}
for i in 1 2 3; do
  PORT=""
  for _ in $(seq 1 50); do
    PORT=$(port_of "$WORK/serve$i.log")
    [ -n "$PORT" ] && break
    eval "pid=\$PID$i"
    kill -0 "$pid" 2>/dev/null || fail "peer p$i died at startup:
$(cat "$WORK/serve$i.log")"
    sleep 0.1
  done
  [ -n "$PORT" ] || fail "peer p$i never reported its port"
  eval "PORT$i=$PORT"
done
echo "swarm-smoke: 3 peers up on ports $PORT1 $PORT2 $PORT3"

# ---- 3. join until every exchange short-circuits ---------------------
"$FSYNC" swarm join "$WORK/joiner" --id joiner \
  --peer "127.0.0.1:$PORT1" --peer "127.0.0.1:$PORT2" \
  --peer "127.0.0.1:$PORT3" --rounds 6 > "$WORK/join.log" 2>&1 \
  || fail "swarm join failed:
$(cat "$WORK/join.log")"
grep -q "converged with every peer" "$WORK/join.log" \
  || fail "join did not converge within 6 rounds:
$(cat "$WORK/join.log")"
ROUNDS=$(sed -n 's/^root [0-9a-f]* after \([0-9][0-9]*\) round.*/\1/p' \
  "$WORK/join.log")
echo "swarm-smoke: converged with every peer after $ROUNDS rounds"

# ---- 4a. all four replicas byte-identical ----------------------------
for i in 1 2 3; do
  diff -r "$WORK/joiner" "$WORK/p$i" >/dev/null 2>&1 \
    || fail "p$i differs from the joiner after convergence:
$(diff -r "$WORK/joiner" "$WORK/p$i" 2>&1 | head -5)"
done
echo "swarm-smoke: 4 replicas byte-identical (vector tables included)"

# ---- 4b. the concurrent edit surfaced, nothing was lost --------------
ls "$WORK/joiner"/clash.txt.fsync-conflict.* >/dev/null 2>&1 \
  || fail "no conflict sibling for clash.txt:
$(ls "$WORK/joiner")"
grep -rq "clash from p1" "$WORK/joiner"/clash.txt* \
  || fail "p1's clash version was lost"
grep -rq "clash from p2" "$WORK/joiner"/clash.txt* \
  || fail "p2's clash version was lost"
"$FSYNC" swarm status "$WORK/joiner" --id joiner > "$WORK/status.log" \
  || fail "swarm status failed"
grep -q "1 unresolved conflict file" "$WORK/status.log" \
  || fail "status does not report the conflict:
$(cat "$WORK/status.log")"
echo "swarm-smoke: conflict surfaced as a sibling, both versions preserved"

# ---- 4b'. quorum read-repair of a single path ------------------------
mkdir -p "$WORK/fresh"
"$FSYNC" swarm repair "$WORK/fresh" --id fresh \
  --peer "127.0.0.1:$PORT1" --peer "127.0.0.1:$PORT2" \
  --peer "127.0.0.1:$PORT3" p1-only.txt > "$WORK/repair.log" 2>&1 \
  || fail "swarm repair failed:
$(cat "$WORK/repair.log")"
grep -q "quorum: 3/3 peers answered" "$WORK/repair.log" \
  || fail "repair reached no quorum:
$(cat "$WORK/repair.log")"
cmp -s "$WORK/fresh/p1-only.txt" "$WORK/p1/p1-only.txt" \
  || fail "repair did not deliver p1-only.txt"
echo "swarm-smoke: read-repair pulled the quorum copy (3/3)"

# ---- 4c. a plain pull from a swarm port -------------------------------
mkdir -p "$WORK/plain"
"$FSYNC" pull "127.0.0.1:$PORT1" "$WORK/plain" --apply -q \
  > "$WORK/pull.log" 2>&1 || fail "plain pull from a swarm port failed:
$(cat "$WORK/pull.log")"
diff -r -x .fsync-swarm "$WORK/p1" "$WORK/plain" >/dev/null 2>&1 \
  || fail "plain pull differs from the served replica:
$(diff -r -x .fsync-swarm "$WORK/p1" "$WORK/plain" 2>&1 | head -5)"
echo "swarm-smoke: plain pull served from the swarm port"

# ---- 4d. a plain push to a swarm port is refused ---------------------
mkdir -p "$WORK/upload"
printf 'must not land\n' > "$WORK/upload/pushed.txt"
cp -R "$WORK/p1" "$WORK/p1.before"
if "$FSYNC" push "127.0.0.1:$PORT1" "$WORK/upload" --attempts 1 -q \
  > "$WORK/push.log" 2>&1; then
  fail "push to a swarm port succeeded:
$(cat "$WORK/push.log")"
fi
diff -r "$WORK/p1.before" "$WORK/p1" >/dev/null 2>&1 \
  || fail "a refused push changed p1:
$(diff -r "$WORK/p1.before" "$WORK/p1" 2>&1 | head -5)"
echo "swarm-smoke: plain push refused, p1 byte-unchanged"

# ---- 5. clean shutdown ----------------------------------------------
for i in 1 2 3; do
  eval "pid=\$PID$i"
  kill -TERM "$pid"
  wait "$pid" 2>/dev/null || true
done
PIDS=""
for i in 1 2 3; do
  grep -q "^swarm peer done:" "$WORK/serve$i.log" \
    || fail "peer p$i did not shut down cleanly:
$(cat "$WORK/serve$i.log")"
  GOSSIP=$(sed -n 's/^swarm peer done: [0-9]* accepted (\([0-9]*\) gossip.*/\1/p' \
    "$WORK/serve$i.log")
  [ "${GOSSIP:-0}" -ge 1 ] \
    || fail "peer p$i completed no gossip sessions:
$(cat "$WORK/serve$i.log")"
done
echo "swarm-smoke: PASS (3 peers, clean shutdown)"
