#!/usr/bin/env bash
# Loopback smoke test for the axsd server: start `axs serve` on a
# directory-backed store, drive scripted `axs connect` sessions (one
# queries 20 000 rows, an answer that spans several frames), shut the
# server down with SIGTERM, and check the store reopens clean with the
# remote writes persisted. Then restart it, insert, `kill -9` it, and check
# that the restarted server recovers the insert from the log it wrote.
# Last, drive the local shell (`axs <dir>`, which serves its directory
# in-process) and check its writes survive into verify and a second shell,
# and that a write it acknowledged survives a `kill -9` of the shell.
#
# Usage: scripts/smoke_server.sh [path-to-axs-binary]
# The caller is expected to wrap this in a hard timeout (CI uses
# `timeout 120 …`) so a deadlocked server fails the job instead of hanging.
set -euo pipefail

AXS="${1:-target/release/axs}"
PORT="${AXS_SMOKE_PORT:-48155}"
WORK="$(mktemp -d)"
STORE="$WORK/store"
SERVER_LOG="$WORK/server.log"
SERVER_PID=""
SHELL_PID=""

cleanup() {
    for pid in "$SERVER_PID" "$SHELL_PID"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# When set (CI does), failing runs copy the server log — which carries
# slow-request lines and flight-recorder dumps — here for artifact upload.
ARTIFACTS="${AXS_SMOKE_ARTIFACTS:-}"

fail() {
    echo "smoke: FAIL — $1" >&2
    echo "---- server log ----" >&2
    cat "$SERVER_LOG" >&2 || true
    if [[ -n "$ARTIFACTS" ]]; then
        mkdir -p "$ARTIFACTS"
        cp "$SERVER_LOG" "$ARTIFACTS/smoke-server.log" 2>/dev/null || true
    fi
    exit 1
}

[[ -x "$AXS" ]] || fail "axs binary not found at $AXS"

# Starts `axs serve` on the store (appending to the server log) and waits
# for a new listening line, which the server prints once the port is bound.
start_server() {
    local before
    before="$(grep -c "axsd listening on" "$SERVER_LOG" 2>/dev/null || true)"
    "$AXS" serve "$STORE" --addr "127.0.0.1:$PORT" >>"$SERVER_LOG" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        [[ "$(grep -c "axsd listening on" "$SERVER_LOG")" -gt "${before:-0}" ]] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
        sleep 0.1
    done
    fail "server never reported listening"
}

start_server

# A scripted remote session: load, query, update, stats, metrics, flush.
CLIENT_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<'EOF'
loadxml <orders><order id="1"><qty>5</qty></order></orders>
query /orders/order
insert-last 1 <order id="2"/>
query //order
stats
metrics
save
quit
EOF
)"

grep -q "loaded nodes"    <<<"$CLIENT_OUT" || fail "bulkload did not succeed: $CLIENT_OUT"
grep -q "1 match(es)"     <<<"$CLIENT_OUT" || fail "first query wrong: $CLIENT_OUT"
grep -q "inserted"        <<<"$CLIENT_OUT" || fail "insert did not succeed: $CLIENT_OUT"
grep -q "2 match(es)"     <<<"$CLIENT_OUT" || fail "post-insert query wrong: $CLIENT_OUT"
grep -q "server.requests" <<<"$CLIENT_OUT" || fail "stats missing server counters: $CLIENT_OUT"
grep -q "flushed"         <<<"$CLIENT_OUT" || fail "flush did not succeed: $CLIENT_OUT"

# metrics-smoke: the Metrics opcode must expose the documented Prometheus
# series, and `axs top --once` must render a dashboard from the same data.
grep -q "axs_server_requests" <<<"$CLIENT_OUT" \
    || fail "metrics missing counter series: $CLIENT_OUT"
grep -q 'axs_request_duration_us_bucket{family="' <<<"$CLIENT_OUT" \
    || fail "metrics missing request-latency histogram: $CLIENT_OUT"
grep -q 'axs_lookup_duration_us' <<<"$CLIENT_OUT" \
    || fail "metrics missing lookup-path histogram: $CLIENT_OUT"
# Every series documents itself: each `# TYPE` line follows a non-empty
# `# HELP` line for the same series (the shell's prompt may prefix a line).
TYPES="$(grep -c '^\(axs> \)*# TYPE ' <<<"$CLIENT_OUT" || true)"
[[ "$TYPES" -gt 0 ]] || fail "metrics has no # TYPE lines: $CLIENT_OUT"
UNDOCUMENTED="$(awk '
    { sub(/^(axs> )+/, "") }
    /^# HELP / { help = $3; text = $4; next }
    /^# TYPE / { if ($3 != help || text == "") print $3 }
    { help = "" }
' <<<"$CLIENT_OUT")"
[[ -z "$UNDOCUMENTED" ]] || fail "series without a # HELP line: $UNDOCUMENTED"

TOP_OUT="$("$AXS" top "127.0.0.1:$PORT" --once)" || fail "axs top --once failed"
grep -q "req/s"                    <<<"$TOP_OUT" || fail "top missing rate line: $TOP_OUT"
grep -q "latency by opcode family" <<<"$TOP_OUT" || fail "top missing family table: $TOP_OUT"
grep -q "lookup paths"             <<<"$TOP_OUT" || fail "top missing lookup paths: $TOP_OUT"
grep -q "group commit"             <<<"$TOP_OUT" || fail "top missing group-commit line: $TOP_OUT"

# explain stage: the first point-lookup of a cold node walks the in-range
# scan path, and that lookup memoizes the node, so the second explain of
# the same id must hit the partial index. Node 2 (the first <order>) has
# never been individually located — queries are cursor scans and the
# insert targeted node 1 — so it is still cold here. Explain always runs
# under the live path on the server, so the verdicts are deterministic
# even with MVCC snapshots on.
EXPLAIN_COLD="$("$AXS" explain "127.0.0.1:$PORT" 2)" || fail "explain (cold) failed"
grep -q "path=scan" <<<"$EXPLAIN_COLD" \
    || fail "cold explain not a range scan: $EXPLAIN_COLD"
grep -q "lookup_range_scan" <<<"$EXPLAIN_COLD" \
    || fail "cold explain missing scan stage: $EXPLAIN_COLD"
grep -q "admit" <<<"$EXPLAIN_COLD" \
    || fail "cold explain logged no admission decision: $EXPLAIN_COLD"
EXPLAIN_WARM="$("$AXS" explain "127.0.0.1:$PORT" 2)" || fail "explain (warm) failed"
grep -q "path=partial" <<<"$EXPLAIN_WARM" \
    || fail "warm explain missed the partial index: $EXPLAIN_WARM"
grep -q "lookup_partial" <<<"$EXPLAIN_WARM" \
    || fail "warm explain missing probe stage: $EXPLAIN_WARM"

# The on-demand flight-recorder dump must replay recent requests.
RECORDER_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<'EOF'
recorder
quit
EOF
)"
grep -q "flight recorder dump (on-demand)" <<<"$RECORDER_OUT" \
    || fail "recorder dump missing header: $RECORDER_OUT"
grep -q "op=Explain" <<<"$RECORDER_OUT" \
    || fail "recorder dump missing the explain requests: $RECORDER_OUT"

# multi-store stage: create two named stores, route writes to each, drop
# one, and check the survivor still answers and the dropped one is gone.
MULTI_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<'EOF'
create-store red
create-store blue
use red
loadxml <reds><r/></reds>
use blue
loadxml <blues><b/><b/></blues>
query //b
use red
query //b
stores
drop-store blue
use blue
query //r
quit
EOF
)"

grep -q 'created store "red"'  <<<"$MULTI_OUT" || fail "create-store red failed: $MULTI_OUT"
grep -q 'created store "blue"' <<<"$MULTI_OUT" || fail "create-store blue failed: $MULTI_OUT"
grep -q "2 match(es)"          <<<"$MULTI_OUT" || fail "blue store query wrong: $MULTI_OUT"
grep -q "0 match(es)"          <<<"$MULTI_OUT" || fail "stores not isolated: $MULTI_OUT"
grep -q "blue .*open"          <<<"$MULTI_OUT" || fail "stores listing missed blue: $MULTI_OUT"
grep -q 'dropped store "blue"' <<<"$MULTI_OUT" || fail "drop-store failed: $MULTI_OUT"
grep -q "unknown-store"        <<<"$MULTI_OUT" || fail "dropped store still reachable: $MULTI_OUT"
grep -q "1 match(es)"          <<<"$MULTI_OUT" || fail "survivor store lost data: $MULTI_OUT"

# packed-rows stage: 20 000 matches span several 64 KiB answer frames, and
# the client must count every row of every frame, over XPath and FLWOR.
WIDE_XML="<wide>$(printf '<e/>%.0s' $(seq 1 20000))</wide>"
WIDE_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<EOF
create-store wide
use wide
loadxml $WIDE_XML
query //e
for \$x in //e return { \$x }
use default
drop-store wide
quit
EOF
)"
grep -q "^\(axs> \)*20000 match(es)" <<<"$WIDE_OUT" \
    || fail "a many-frame query lost rows: $(head -c 2000 <<<"$WIDE_OUT")"
grep -q "^\(axs> \)*20000 row(s)" <<<"$WIDE_OUT" \
    || fail "a many-frame FLWOR lost rows: $(head -c 2000 <<<"$WIDE_OUT")"
grep -q 'dropped store "wide"' <<<"$WIDE_OUT" \
    || fail "drop-store wide failed: $(tail -c 2000 <<<"$WIDE_OUT")"

# Graceful shutdown must drain and flush through the WAL.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=""
grep -q "clean shutdown" "$SERVER_LOG" || fail "server did not report clean shutdown"

# The store must reopen clean with the remote insert persisted.
VERIFY_OUT="$("$AXS" verify "$STORE")" || fail "verify failed after shutdown: $VERIFY_OUT"
grep -q "^ok:" <<<"$VERIFY_OUT" || fail "verify output unexpected: $VERIFY_OUT"

# crash stage: a write acknowledged over the wire lives only in the log the
# server wrote (no flush), so after `kill -9` the restarted server must
# recover it by replaying that log.
start_server
CRASH_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<'EOF'
insert-last 1 <order id="3"/>
quit
EOF
)"
grep -q "inserted" <<<"$CRASH_OUT" || fail "pre-crash insert did not succeed: $CRASH_OUT"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

start_server
RECOVERED_OUT="$("$AXS" connect "127.0.0.1:$PORT" <<'EOF'
query //order
quit
EOF
)"
grep -q "3 match(es)" <<<"$RECOVERED_OUT" \
    || fail "acknowledged insert lost across kill -9: $RECOVERED_OUT"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "recovered server exited non-zero on SIGTERM"
SERVER_PID=""

VERIFY_OUT="$("$AXS" verify "$STORE")" || fail "verify failed after recovery: $VERIFY_OUT"
grep -q "^ok:" <<<"$VERIFY_OUT" || fail "verify output unexpected after recovery: $VERIFY_OUT"

# local-shell stage: the shell humans use serves its directory to itself
# and acknowledges each write once it is durable, so verify and a second
# shell over the same directory see both writes without a `save`.
LOCAL="$WORK/local"
LOCAL_OUT="$("$AXS" "$LOCAL" <<'EOF'
loadxml <orders><order id="1"/></orders>
insert-last 1 <order id="2"/>
quit
EOF
)" || fail "local shell exited non-zero: $LOCAL_OUT"
grep -q "loaded nodes" <<<"$LOCAL_OUT" || fail "local loadxml did not succeed: $LOCAL_OUT"
grep -q "inserted"     <<<"$LOCAL_OUT" || fail "local insert did not succeed: $LOCAL_OUT"
LOCAL_VERIFY="$("$AXS" verify "$LOCAL")" || fail "verify failed after the local shell: $LOCAL_VERIFY"
grep -q "^ok:" <<<"$LOCAL_VERIFY" || fail "verify output unexpected after the local shell: $LOCAL_VERIFY"
LOCAL_OUT="$("$AXS" "$LOCAL" <<'EOF'
query //order
quit
EOF
)" || fail "second local shell exited non-zero: $LOCAL_OUT"
grep -q "2 match(es)" <<<"$LOCAL_OUT" || fail "second local shell lost a write: $LOCAL_OUT"

# local-shell crash stage: the shell stays open on a fifo, inserts, and is
# killed with `kill -9` once it prints the ack — no `save`, no shutdown
# flush — so a new shell sees the insert only if the ack meant durable.
mkfifo "$WORK/shell.in"
"$AXS" "$LOCAL" <"$WORK/shell.in" >"$WORK/shell.out" 2>&1 &
SHELL_PID=$!
exec 3>"$WORK/shell.in"
echo 'insert-last 1 <order id="3"/>' >&3
for _ in $(seq 1 100); do
    grep -q "inserted" "$WORK/shell.out" && break
    kill -0 "$SHELL_PID" 2>/dev/null || break
    sleep 0.1
done
grep -q "inserted" "$WORK/shell.out" \
    || fail "local insert before the kill did not succeed: $(cat "$WORK/shell.out")"
kill -9 "$SHELL_PID"
wait "$SHELL_PID" 2>/dev/null || true
SHELL_PID=""
exec 3>&-
LOCAL_OUT="$("$AXS" "$LOCAL" <<'EOF'
query //order
quit
EOF
)" || fail "local shell after kill -9 exited non-zero: $LOCAL_OUT"
grep -q "3 match(es)" <<<"$LOCAL_OUT" \
    || fail "acknowledged local insert lost across kill -9: $LOCAL_OUT"
LOCAL_VERIFY="$("$AXS" verify "$LOCAL")" || fail "verify failed after the local crash: $LOCAL_VERIFY"
grep -q "^ok:" <<<"$LOCAL_VERIFY" || fail "verify output unexpected after the local crash: $LOCAL_VERIFY"

echo "smoke: OK — $VERIFY_OUT"
