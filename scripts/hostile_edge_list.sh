#!/usr/bin/env bash
# Process-level check of the edge-list size rule (src/graph/graph_io.h): the
# 12-byte file "0 300000000" names a vertex id that implies a 300M-vertex
# CSR, which once drove reach_cli past 15 GB of RSS into the OOM killer.
# Under a 2 GB address-space cap, reach_cli must now refuse it within 5 s,
# exit non-zero, and print the rule's ResourceExhausted error.
#
# Usage: scripts/hostile_edge_list.sh REACH_CLI --sanitize=LIST
# A non-empty LIST (the build's REACH_SANITIZE) exits 77, which CTest maps
# to SKIPPED: ASan and TSan reserve terabytes of address space, which no
# `ulimit -v` admits.

set -u

cli="$1"
sanitize="${2#--sanitize=}"
if [ -n "$sanitize" ]; then
  echo "hostile_edge_list: skipped in a sanitizer build ($sanitize)"
  exit 77
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
fail() {
  echo "hostile_edge_list FAILED: $*" >&2
  [ -s "$workdir/err" ] && sed 's/^/  stderr: /' "$workdir/err" >&2
  exit 1
}

graph="$workdir/hostile.txt"
printf '0 300000000\n' > "$graph"
[ "$(wc -c < "$graph")" -eq 12 ] || fail "the hostile file is not 12 bytes"

status=0
(ulimit -v 2000000 && exec timeout 5 "$cli" "$graph" --oracle=BFS 0 1) \
  < /dev/null > "$workdir/out" 2> "$workdir/err" || status=$?
[ "$status" -ne 0 ] || fail "reach_cli accepted the file"
[ "$status" -ne 124 ] || fail "reach_cli did not finish within 5 s"
want="ResourceExhausted: $graph: edge list line 1: vertex id 300000000 implies"
grep -qF "$want" "$workdir/err" \
  || fail "no ResourceExhausted error naming the file, the line and the id"
echo "hostile_edge_list OK: refused with exit $status"
