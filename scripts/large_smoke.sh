#!/usr/bin/env bash
# Large-tier end-to-end smoke, run by CTest under the integration label
# (so the gcc and ASan/UBSan CI jobs both execute it): generate a
# 10^6-edge DAG, stream it through the edge-list file reader (reach_serve
# loads it with ReadGraphFile, which dispatches edge lists there; the
# event=graph_read log line, its one-pass read and its range count are
# asserted), build +
# save a DL snapshot, restart with --load-index (zero-copy mmap path), and require
# 10k batched query answers byte-identical between the freshly built
# server and the mmap-loaded one. The load leg must also
# report the lazy identity condensation (identity_scc 1): the snapshot was
# saved over a DAG, so serving it must skip Tarjan entirely.
#
#   large_smoke.sh <path-to-reach_serve> <path-to-reach_client>
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
  echo "large_smoke FAILED: $*" >&2
  for err in "$workdir"/*.err; do
    echo "--- $err ---" >&2
    tail -20 "$err" >&2 || true
  done
  exit 1
}

wait_for_port() {
  # $1 = stdout file of the server; echoes the port, empty on timeout.
  local out=$1 port=""
  for _ in $(seq 1 600); do
    port=$(awk '/^LISTENING /{print $2}' "$out" 2>/dev/null)
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2>/dev/null || return 0
    sleep 0.5
  done
  echo "$port"
}

# Deterministic 10^6-edge DAG: a 1000-edge chain (0 -> 1 -> ... -> 1000)
# for reachability depth, then 999 stars of 1000 leaves each for breadth.
# 1_001_000 vertices, exactly 1_000_000 edges — big enough that the
# streamed reader, the snapshot writer, and the mmap loader all do real
# work, small enough for the sanitizer jobs.
awk 'BEGIN{
  for (i = 0; i < 1000; i++) printf "%d %d\n", i, i + 1
  v = 1001
  for (h = 0; h < 999; h++) {
    hub = v; v++
    for (l = 0; l < 1000; l++) { printf "%d %d\n", hub, v; v++ }
  }
}' > "$workdir/graph.txt"
lines=$(wc -l < "$workdir/graph.txt")
[ "$lines" -eq 1000000 ] || fail "generator produced $lines edges"

# 10k deterministic query pairs (plain LCG; only reproducibility matters).
awk 'BEGIN{
  n = 1001000; s = 123456789
  for (i = 0; i < 10000; i++) {
    s = (s * 1103515245 + 12345) % 2147483648; u = s % n
    s = (s * 1103515245 + 12345) % 2147483648; v = s % n
    printf "%d %d\n", u, v
  }
}' > "$workdir/queries.txt"

# Leg 1: streamed build, snapshot save, reference answers.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=2 --workers=2 \
  --save-index="$workdir/index.snap" \
  > "$workdir/build.out" 2> "$workdir/build.err" &
server_pid=$!
port=$(wait_for_port "$workdir/build.out")
[ -n "$port" ] || fail "build server: no LISTENING line"
[ -s "$workdir/index.snap" ] || fail "no index snapshot was written"
# The graph read is logged as one key=value line before LISTENING.
grep -q '^event=graph_read .*vertices=1001000 edges=1000000 read_ms=' \
  "$workdir/build.err" || fail "build server did not log event=graph_read"
# The generated edge list is in source order with ascending rows, so the
# reader must finish it in one pass and skip canonicalization; a silent
# fallback to the second pass or to sorting the rows fails here. The file
# (about 14 MB) is long enough for one range per thread, so with
# REACH_THREADS set the read must have parsed exactly that many ranges.
want_ranges='[1-9][0-9]*'
[ -n "${REACH_THREADS:-}" ] && want_ranges=$REACH_THREADS
grep -q "^event=graph_read .* passes=1 ranges=$want_ranges canonical=1 " \
  "$workdir/build.err" \
  || fail "build server did not read the source-ordered graph in one pass" \
          "of ${want_ranges} ranges"
# The build names the hop order that ranked DL's vertices. The graph's
# closure is sparse, so the default cover-per-cost rank applies.
grep -q '^event=index_built .*order=cover_per_cost ' "$workdir/build.err" \
  || fail "build server did not log order=cover_per_cost on event=index_built"
"$CLIENT" --port="$port" < "$workdir/queries.txt" \
  > "$workdir/built_answers.out" || fail "build-leg client exited non-zero"
built_count=$(wc -l < "$workdir/built_answers.out")
[ "$built_count" -eq 10000 ] \
  || fail "build leg answered $built_count of 10000 queries"
bye=$("$CLIENT" --port="$port" --shutdown < /dev/null) \
  || fail "build-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "build leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "build server exit code $server_status"

# Leg 2: restart from the snapshot. The startup log must show the mmap
# zero-copy path AND the skipped condensation; construction must not run.
"$SERVE" "$workdir/graph.txt" --method=DL --threads=2 --workers=2 \
  --load-index="$workdir/index.snap" \
  > "$workdir/load.out" 2> "$workdir/load.err" &
server_pid=$!
port_load=$(wait_for_port "$workdir/load.out")
[ -n "$port_load" ] || fail "load server: no LISTENING line"
grep -q 'loaded index from' "$workdir/load.err" \
  || fail "load server did not log the snapshot load"
grep -q 'mmap zero-copy' "$workdir/load.err" \
  || fail "load server is not serving from the mapping"
grep -q 'SCC condensation skipped' "$workdir/load.err" \
  || fail "load server did not take the lazy identity-SCC path"
"$CLIENT" --port="$port_load" --stats < "$workdir/queries.txt" \
  > "$workdir/loaded_answers.out" || fail "load-leg client exited non-zero"
# Byte-identity: the mmap-served answers equal the built-index answers.
if ! cmp -s <(head -10000 "$workdir/loaded_answers.out") \
            "$workdir/built_answers.out"; then
  fail "mmap-loaded answers differ from built-index answers"
fi
# The publish diagnostics are exported over STATS: identity condensation
# pinned on, the mapping live, and the load wall time / peak RSS present.
grep -q '^identity_scc 1$' "$workdir/loaded_answers.out" \
  || fail "STATS missing identity_scc 1"
grep -q '^mmap 1$' "$workdir/loaded_answers.out" \
  || fail "STATS missing mmap 1"
grep -q '^load_ms ' "$workdir/loaded_answers.out" \
  || fail "STATS missing load_ms"
grep -q '^rss_kb ' "$workdir/loaded_answers.out" \
  || fail "STATS missing rss_kb"
bye=$("$CLIENT" --port="$port_load" --shutdown < /dev/null) \
  || fail "load-leg shutdown client exited non-zero"
[ "$bye" = "BYE" ] || fail "load leg: expected BYE, got '$bye'"
server_status=0
wait "$server_pid" || server_status=$?
server_pid=""
[ "$server_status" -eq 0 ] || fail "load server exit code $server_status"

echo "large_smoke OK (build port $port, load port $port_load)"
