#!/usr/bin/env sh
# history_smoke.sh — end-to-end metric-history check against a real womd.
#
# Builds womd and womtool, starts womd with a persistent -history-dir and
# a fast scrape interval, runs jobs, and asserts the embedded TSDB
# answers: /v1/series discovers scraped families, /v1/query_range returns
# points and refuses an oversized grid, and a firing alert lands in
# /v1/alerts/history. Then restarts
# the daemon against the same directory and asserts continuity: history
# from before the restart still answers queries, the alert journal
# survived, and the restored alert is re-evaluated (still firing) within
# one scrape interval. Finally renders `womtool graph` from the history
# and leaves history-smoke.html in the working directory for CI to keep
# as an artifact, and checks `womtool top -once` exits 2 while an alert
# is firing.
#
# Usage: scripts/history_smoke.sh [port]
set -eu

PORT="${1:-18083}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
HISTDIR="$WORKDIR/history"
WOMD_PID=""

cleanup() {
    [ -n "$WOMD_PID" ] && kill "$WOMD_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "FAIL: $*" >&2
    echo "--- womd log ---" >&2
    cat "$WORKDIR/womd.log" >&2 || true
    exit 1
}

# Poll url until its body matches pattern or ~15s pass.
wait_for() {
    url="$1"; pattern="$2"; what="$3"
    i=0
    while [ "$i" -lt 150 ]; do
        if curl -fsS "$url" 2>/dev/null | grep -q "$pattern"; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    fail "$what (no match for '$pattern' at $url)"
}

start_womd() {
    "$WORKDIR/womd" -addr ":$PORT" -workers 1 -queue 4 \
        -history-dir "$HISTDIR" -history-scrape 250ms \
        -alert-rules "$WORKDIR/rules.json" -timeout 60s -drain 2s \
        >>"$WORKDIR/womd.log" 2>&1 &
    WOMD_PID=$!
    wait_for "$BASE/v1/experiments" '"fig5"' "womd never came up"
}

echo "==> building womd and womtool"
go build -o "$WORKDIR/womd" ./cmd/womd
go build -o "$WORKDIR/womtool" ./cmd/womtool

cat > "$WORKDIR/rules.json" <<'EOF'
{
  "interval_ms": 200,
  "rules": [
    {"name": "queue-hot", "kind": "queue_saturation", "severity": "page",
     "threshold": 0.5, "for_s": 0, "keep_firing_s": 120}
  ]
}
EOF

echo "==> starting womd on :$PORT (250ms history scrape, persistent $HISTDIR)"
start_womd

echo "==> running a job and waiting for history to see it"
curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
    -d '{"experiment":"fig5","params":{"requests":20000,"bench":["qsort"],"ranks":4}}' \
    >/dev/null || fail "job submission refused"
wait_for "$BASE/v1/series?metric=womd_jobs_completed_total" '"metric"' \
    "history never discovered womd_jobs_completed_total"
wait_for "$BASE/v1/series?metric=womd_history_job_wall_seconds" '"experiment"' \
    "job hot-path hook never recorded into history"

now=$(date +%s)
range="start=$((now - 300))&end=$((now + 5))&step=5s"
curl -fsS "$BASE/v1/query_range?metric=womd_uptime_seconds&agg=max&$range" \
    | grep -q '"points": *\[' || fail "query_range returned no points"
curl -fsS -o /dev/null -w '%{http_code}' "$BASE/v1/query_range?metric=womd_up&start=9&end=5" \
    | grep -q 400 || fail "bad query_range did not 400"
# A grid past 11,000 points is refused before it can hold the history
# lock that every finishing job takes.
curl -sS --max-time 10 -o /dev/null -w '%{http_code}' \
    "$BASE/v1/query_range?metric=womd_uptime_seconds&start=0&end=$now&step=1ms" \
    | grep -q 400 || fail "oversized query_range grid did not 400"

echo "==> saturating the queue so queue-hot fires and is journaled"
i=0
while [ "$i" -lt 6 ]; do
    curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
        -d '{"experiment":"fig5","params":{"requests":30000000,"bench":["qsort"],"ranks":4,"seed":'"$i"'}}' \
        >/dev/null 2>&1 || true
    i=$((i + 1))
done
wait_for "$BASE/v1/alerts" '"state": *"firing"' "queue-hot never fired"
wait_for "$BASE/v1/alerts/history" '"to": *"firing"' "firing transition never journaled"

echo "==> womtool top -once must exit 2 while an alert is firing"
set +e
"$WORKDIR/womtool" top -once -url "$BASE" >"$WORKDIR/top.txt" 2>&1
top_rc=$?
set -e
[ "$top_rc" = "2" ] || fail "womtool top -once exit=$top_rc with a firing alert, want 2"
grep -q 'FIRING' "$WORKDIR/top.txt" || fail "top frame does not show the firing alert"

echo "==> restarting womd against the same history directory"
kill "$WOMD_PID" 2>/dev/null || true
wait "$WOMD_PID" 2>/dev/null || true
WOMD_PID=""
start_womd

echo "==> continuity: pre-restart history and alert journal must survive"
curl -fsS "$BASE/v1/query_range?metric=womd_uptime_seconds&agg=max&$range" \
    | grep -q '"points": *\[' || fail "pre-restart samples gone after restart"
curl -fsS "$BASE/v1/alerts/history" | grep -q '"to": *"firing"' \
    || fail "alert journal gone after restart"

echo "==> restored alert must be re-evaluated within one scrape interval"
# The queue is empty after the restart (jobs died with the old process),
# so the journaled queue-hot alert comes back, is re-evaluated against
# live signals, and rides keep_firing — visible on /v1/alerts as a
# restored firing alert.
wait_for "$BASE/v1/alerts" '"restored": *"true"' "journaled alert not reinstalled"

echo "==> rendering womtool graph from history"
"$WORKDIR/womtool" graph -url "$BASE" -window 10m -o history-smoke.html \
    || fail "womtool graph failed"
grep -q '<polyline' history-smoke.html || fail "graph HTML has no polylines"
grep -q 'womd_jobs_completed_total' history-smoke.html \
    || fail "graph HTML missing the jobs chart"

echo "==> checking womd_history_* families on /metrics"
prom=$(curl -fsS "$BASE/metrics") || fail "/metrics unreadable"
echo "$prom" | grep -q 'womd_history_series [1-9]' || fail "womd_history_series gauge missing"
echo "$prom" | grep -q 'womd_history_scrapes_total [1-9]' || fail "scrape counter missing"

echo "==> OK: history answered, survived a restart, reinstalled its alert, and rendered graphs"
