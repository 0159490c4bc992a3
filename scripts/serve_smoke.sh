#!/usr/bin/env bash
# End-to-end smoke test for the serving layer, run by CTest (and thus by
# every CI job that runs the integration label, including the sanitizer
# matrix): start reach_serve on an ephemeral port, run a scripted
# reach_client batch, assert the answers and the STATS block, check that an
# idle connection leaves the server off the CPU, then SHUTDOWN and require
# a clean (exit 0) drain.
#
#   serve_smoke.sh <path-to-reach_serve> <path-to-reach_client>
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <reach_serve> <reach_client>" >&2
  exit 2
fi
SERVE=$1
CLIENT=$2

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke FAILED: $*" >&2
  for err in "$workdir"/*.err; do
    echo "--- $err ---" >&2
    cat "$err" >&2 || true
  done
  exit 1
}

# A graph whose reachability is obvious by eye: the chain 0->1->2->3->4
# plus a shortcut 1->3 and an isolated vertex 5.
cat > "$workdir/graph.txt" <<'EOF'
# smoke graph
0 1
1 2
2 3
3 4
1 3
EOF
printf '5 5\n' >> "$workdir/graph.txt"
# "5 5" is a self-loop; the builder keeps the vertex, drops the loop.

"$SERVE" "$workdir/graph.txt" --method=DL --threads=2 --workers=2 \
  > "$workdir/server.out" 2> "$workdir/server.err" &
server_pid=$!

# Wait for the readiness line (the server prints "LISTENING <port>" once
# the index is built and the listener is bound).
port=""
for _ in $(seq 1 100); do
  port=$(awk '/^LISTENING /{print $2}' "$workdir/server.out" 2>/dev/null)
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$port" ] || fail "no LISTENING line within 10s"
# The build logs its phase timers in one key=value line before LISTENING.
grep -Eq '^event=index_built threads=2 order=[a-z_]+ order_ms=[0-9.]+ label_ms=[0-9.]+ search_ms=[0-9.]+ cleanup_ms=[0-9.]+ append_ms=[0-9.]+ batches=[1-9][0-9]* probes=[0-9]+ pruned=[0-9]+ row_keys_read=[0-9]+ seal_ms=[0-9.]+ build_ms=[0-9.]+$' \
  "$workdir/server.err" || fail "server did not log event=index_built"

# Scripted batch: six queries whose answers are known by construction,
# plus an out-of-range pair that must answer ERR in place (keeping the
# frame aligned) without killing the server.
printf '0 4\n4 0\n1 3\n5 0\n0 5\n2 2\n9 9\n' \
  | "$CLIENT" --port="$port" --stats > "$workdir/client.out" \
  || fail "client batch exited non-zero"

expected_answers='1
0
1
0
0
1
ERR vertex out of range'
answers=$(head -7 "$workdir/client.out")
if [ "$answers" != "$expected_answers" ]; then
  fail "batch answers mismatch: got [$answers]"
fi
grep -q '^method DL$' "$workdir/client.out" || fail "STATS missing method"
# Disjoint counters: six answered queries; the out-of-range pair counts
# only as malformed, never as both.
grep -q '^queries 6$' "$workdir/client.out" || fail "STATS missing queries"
grep -q '^malformed 1$' "$workdir/client.out" || fail "STATS missing malformed"
# The ERR is a range error, not a parse error: malformed is split by kind.
grep -q '^err_range 1$' "$workdir/client.out" || fail "STATS missing err_range"
grep -q '^err_parse 0$' "$workdir/client.out" || fail "STATS missing err_parse"
grep -q '^batches 1$' "$workdir/client.out" || fail "STATS missing batches"
# The smoke graph is a DAG, so the server indexed it in place: no SCC
# condensation, component ids are vertex ids.
grep -q '^identity_scc 1$' "$workdir/client.out" \
  || fail "STATS missing identity_scc 1"
# Without --prefilter the tier is off and no pf_ counters are exported.
grep -q '^prefilter 0$' "$workdir/client.out" \
  || fail "STATS missing prefilter 0"
! grep -q '^pf_' "$workdir/client.out" \
  || fail "unfiltered server exported pf_ counters"
kill -0 "$server_pid" 2>/dev/null || fail "server died on malformed input"

# An idle connection must not keep its handler on a CPU: a handler polls
# for the next request only for a short window after each reply, then
# blocks in recv. Hold one connection open after one round trip and read
# the server's utime+stime (fields 14 and 15 of /proc/<pid>/stat, in clock
# ticks) over about a second; more than 10% of one CPU fails.
exec 5<>"/dev/tcp/127.0.0.1/$port" || fail "idle client could not connect"
printf 'Q 0 4\n' >&5
reply=""
read -r -t 5 reply <&5
[ "$reply" = "1" ] || fail "idle client got '$reply' for Q 0 4"
[ -r "/proc/$server_pid/stat" ] || fail "cannot read /proc/$server_pid/stat"
cpu_ticks() {
  local stat
  stat=$(cat "/proc/$server_pid/stat")
  # Fields after the parenthesized command name start at field 3.
  echo "${stat##*) }" | awk '{print $12 + $13}'
}
ticks_per_s=$(getconf CLK_TCK)
ticks_before=$(cpu_ticks)
wall_before=$(date +%s%N)
sleep 1
ticks_after=$(cpu_ticks)
wall_after=$(date +%s%N)
exec 5>&-
cpu_ms=$(( (ticks_after - ticks_before) * 1000 / ticks_per_s ))
wall_ms=$(( (wall_after - wall_before) / 1000000 ))
[ $(( cpu_ms * 10 )) -le "$wall_ms" ] \
  || fail "idle connection: server used $cpu_ms ms of CPU in $wall_ms ms"

# Graceful drain: SHUTDOWN answers BYE and the server exits 0.
bye=$("$CLIENT" --port="$port" --shutdown < /dev/null) \
  || fail "shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "expected BYE, got '$bye'"

server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "server exit code $server_status"
grep -q '^drained after ' "$workdir/server.err" \
  || fail "server did not report a drain"

# Snapshot path: --save-index on a fresh build, then a restarted server
# with --load-index must skip construction (the startup log proves it) and
# serve byte-identical batch answers.
batch_queries='0 4
4 0
1 3
5 0
0 5
2 2'
"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  --save-index="$workdir/index.snap" \
  > "$workdir/save.out" 2> "$workdir/save.err" &
server_pid=$!
port_save=""
for _ in $(seq 1 100); do
  port_save=$(awk '/^LISTENING /{print $2}' "$workdir/save.out" 2>/dev/null)
  [ -n "$port_save" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "save server exited early"
  sleep 0.1
done
[ -n "$port_save" ] || fail "save server: no LISTENING line within 10s"
[ -s "$workdir/index.snap" ] || fail "no index snapshot was written"
grep -q '^index snapshot saved to ' "$workdir/save.err" \
  || fail "save server did not log the snapshot"
printf '%s\n' "$batch_queries" \
  | "$CLIENT" --port="$port_save" > "$workdir/save_answers.out" \
  || fail "save-leg client exited non-zero"
bye=$("$CLIENT" --port="$port_save" --shutdown < /dev/null) \
  || fail "save-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "save leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "save server exit code $server_status"

"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  --load-index="$workdir/index.snap" \
  > "$workdir/load.out" 2> "$workdir/load.err" &
server_pid=$!
port_load=""
for _ in $(seq 1 100); do
  port_load=$(awk '/^LISTENING /{print $2}' "$workdir/load.out" 2>/dev/null)
  [ -n "$port_load" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "load server exited early"
  sleep 0.1
done
[ -n "$port_load" ] || fail "load server: no LISTENING line within 10s"
grep -q 'loaded index from .*skipped construction' "$workdir/load.err" \
  || fail "load server did not report skipping construction"
printf '%s\n' "$batch_queries" \
  | "$CLIENT" --port="$port_load" > "$workdir/load_answers.out" \
  || fail "load-leg client exited non-zero"
if ! cmp -s "$workdir/save_answers.out" "$workdir/load_answers.out"; then
  fail "snapshot-loaded answers differ from freshly-built answers"
fi
bye=$("$CLIENT" --port="$port_load" --shutdown < /dev/null) \
  || fail "load-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "load leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "load server exit code $server_status"

# Hot-swap path: on a freshly built server, SAVE the live index over the
# wire, then RELOAD it back while the same connection keeps the session
# open. Answers must match the fresh build byte for byte, STATS must show
# the swap, and the atomic publish must leave no .tmp behind.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  > "$workdir/swap.out" 2> "$workdir/swap.err" &
server_pid=$!
port_swap=""
for _ in $(seq 1 100); do
  port_swap=$(awk '/^LISTENING /{print $2}' "$workdir/swap.out" 2>/dev/null)
  [ -n "$port_swap" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "swap server exited early"
  sleep 0.1
done
[ -n "$port_swap" ] || fail "swap server: no LISTENING line within 10s"
printf '%s\n' "$batch_queries" \
  | "$CLIENT" --port="$port_swap" --save="$workdir/hot.snap" \
      --reload="$workdir/hot.snap" --stats > "$workdir/swap_client.out" \
  || fail "swap-leg client exited non-zero"
if ! cmp -s <(head -6 "$workdir/swap_client.out") "$workdir/save_answers.out"
then
  fail "swap-leg batch answers differ from freshly-built answers"
fi
[ "$(sed -n '7p' "$workdir/swap_client.out")" = "OK" ] \
  || fail "SAVE did not answer OK"
[ "$(sed -n '8p' "$workdir/swap_client.out")" = "OK" ] \
  || fail "RELOAD did not answer OK"
[ -s "$workdir/hot.snap" ] || fail "SAVE left no snapshot on disk"
[ ! -e "$workdir/hot.snap.tmp" ] || fail "SAVE left a .tmp behind"
grep -q '^saves 1$' "$workdir/swap_client.out" || fail "STATS missing saves"
grep -q '^reloads 1$' "$workdir/swap_client.out" \
  || fail "STATS missing reloads"
grep -q '^malformed 0$' "$workdir/swap_client.out" \
  || fail "swap leg counted malformed input"
# The swapped-in index keeps serving correct answers.
printf '%s\n' "$batch_queries" \
  | "$CLIENT" --port="$port_swap" > "$workdir/swap_after.out" \
  || fail "post-swap client exited non-zero"
cmp -s "$workdir/swap_after.out" "$workdir/save_answers.out" \
  || fail "post-swap answers differ from freshly-built answers"
bye=$("$CLIENT" --port="$port_swap" --shutdown < /dev/null) \
  || fail "swap-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "swap leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "swap server exit code $server_status"

# Prefilter path: the same graph behind --prefilter must serve answers
# byte-identical to the unfiltered server, and STATS must show the tier on
# with per-stage hit counters that account for every query.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  --prefilter > "$workdir/pf.out" 2> "$workdir/pf.err" &
server_pid=$!
port_pf=""
for _ in $(seq 1 100); do
  port_pf=$(awk '/^LISTENING /{print $2}' "$workdir/pf.out" 2>/dev/null)
  [ -n "$port_pf" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "prefilter server exited early"
  sleep 0.1
done
[ -n "$port_pf" ] || fail "prefilter server: no LISTENING line within 10s"
grep -q '^prefilter tier enabled (DL+pf)$' "$workdir/pf.err" \
  || fail "prefilter server did not announce the tier"
printf '%s\n' "$batch_queries" \
  | "$CLIENT" --port="$port_pf" --stats > "$workdir/pf_client.out" \
  || fail "prefilter-leg client exited non-zero"
if ! cmp -s <(head -6 "$workdir/pf_client.out") "$workdir/save_answers.out"
then
  fail "prefilter batch answers differ from unfiltered answers"
fi
# The method line stays the configured base method (snapshot headers key
# on it); the tier shows up as the prefilter flag plus the startup log.
grep -q '^method DL$' "$workdir/pf_client.out" \
  || fail "STATS missing method"
grep -q '^prefilter 1$' "$workdir/pf_client.out" \
  || fail "STATS missing prefilter 1"
for counter in pf_interval_yes pf_interval_no pf_support_yes pf_support_no \
               pf_level_no pf_fallback; do
  grep -q "^$counter " "$workdir/pf_client.out" \
    || fail "STATS missing $counter"
done
# Five of the six queries reach the oracle tier; the reflexive pair (2,2)
# is answered by the same-SCC check in front of it.
pf_total=$(awk '/^pf_/{sum += $2} END{print sum}' "$workdir/pf_client.out")
[ "$pf_total" = "5" ] \
  || fail "pf_ counters sum to $pf_total, expected 5 (one per oracle query)"
bye=$("$CLIENT" --port="$port_pf" --shutdown < /dev/null) \
  || fail "prefilter-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "prefilter leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "prefilter server exit code $server_status"

# Signal path: SIGTERM on an idle server (no client ever connected) must
# drain and exit 0 — regression for a signal-initiated drain that never
# woke Wait(), leaving the process killable only by SIGKILL.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  > "$workdir/signal.out" 2> "$workdir/signal.err" &
server_pid=$!
port2=""
for _ in $(seq 1 100); do
  port2=$(awk '/^LISTENING /{print $2}' "$workdir/signal.out" 2>/dev/null)
  [ -n "$port2" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "signal server exited early"
  sleep 0.1
done
[ -n "$port2" ] || fail "signal server: no LISTENING line within 10s"
kill -TERM "$server_pid"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] \
  || fail "SIGTERM exit code $server_status (expected clean drain)"
grep -q '^drained after ' "$workdir/signal.err" \
  || fail "signal server did not report a drain"

# Signal path with held handlers: SIGTERM while idle clients hold both
# handlers must still drain, join the server's handler threads and exit 0
# within 5 s. The idle clients are bash's own /dev/tcp sockets, each served
# once (PING/PONG) so a handler is known to hold it.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=1 --workers=2 \
  > "$workdir/held.out" 2> "$workdir/held.err" &
server_pid=$!
port3=""
for _ in $(seq 1 100); do
  port3=$(awk '/^LISTENING /{print $2}' "$workdir/held.out" 2>/dev/null)
  [ -n "$port3" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "held server exited early"
  sleep 0.1
done
[ -n "$port3" ] || fail "held server: no LISTENING line within 10s"
exec 3<>"/dev/tcp/127.0.0.1/$port3" || fail "idle client could not connect"
exec 4<>"/dev/tcp/127.0.0.1/$port3" || fail "idle client could not connect"
for fd in 3 4; do
  printf 'PING\n' >&"$fd"
  reply=""
  read -r -t 5 reply <&"$fd"
  [ "$reply" = "PONG" ] || fail "idle client got '$reply' for PING"
done
kill -TERM "$server_pid"
for _ in $(seq 1 50); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$server_pid" 2>/dev/null \
  && fail "SIGTERM with idle clients connected: no exit within 5s"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
exec 3>&- 4>&-
[ "$server_status" -eq 0 ] \
  || fail "SIGTERM with idle clients: exit code $server_status"
grep -q '^drained after ' "$workdir/held.err" \
  || fail "held server did not report a drain"

echo "serve_smoke OK (port $port, signal port $port2, held port $port3)"
