#!/usr/bin/env sh
# alerts_smoke.sh — end-to-end SLO alerting check against a real womd.
#
# Builds womd, starts it standalone with a tiny queue and an aggressive
# alert-rules file (200ms evaluation, queue_saturation at 50%), then
# saturates the queue with slow fig5 jobs and asserts the full operator
# surface reacts: GET /v1/tenants lists the implicit "default" tenant, the
# overflowing submission gets a 429 with a Retry-After header and reason
# queue_full, GET /readyz flips to 503, the queue-hot alert reaches
# "firing" on GET /v1/alerts with the saturation rule named, and the
# womd_alert_* families count the transition on /metrics. Leaves
# alerts-smoke.json (the firing alert list) in the working directory for
# CI to keep as an artifact.
#
# Usage: scripts/alerts_smoke.sh [port]
set -eu

PORT="${1:-18082}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
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

echo "==> building womd"
go build -o "$WORKDIR/womd" ./cmd/womd

cat > "$WORKDIR/rules.json" <<'EOF'
{
  "interval_ms": 200,
  "rules": [
    {"name": "queue-hot", "kind": "queue_saturation", "severity": "page",
     "threshold": 0.5, "for_s": 0, "keep_firing_s": 60}
  ]
}
EOF

echo "==> starting womd on :$PORT (1 worker, queue depth 4, 200ms alert evaluation)"
"$WORKDIR/womd" -addr ":$PORT" -workers 1 -queue 4 \
    -alert-rules "$WORKDIR/rules.json" -timeout 60s \
    >"$WORKDIR/womd.log" 2>&1 &
WOMD_PID=$!
wait_for "$BASE/v1/experiments" '"fig5"' "womd never came up"

curl -fsS "$BASE/readyz" | grep -q '"ready": *true' \
    || fail "/readyz not ready on an idle daemon"
curl -fsS "$BASE/v1/tenants" | grep -q '"name": *"default"' \
    || fail "/v1/tenants does not list the implicit default tenant"

echo "==> saturating the queue with slow jobs"
# One job occupies the single worker; the rest sit in the depth-4 queue,
# holding occupancy over both the 50% alert threshold and the 90%
# readiness threshold. Six submissions overflow it: the last 429 is kept.
i=0
shed=""
while [ "$i" -lt 6 ]; do
    code=$(curl -sS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
        -D "$WORKDIR/submit.headers" -o "$WORKDIR/submit.json" -w '%{http_code}' \
        -d '{"experiment":"fig5","params":{"requests":30000000,"bench":["qsort"],"ranks":4,"seed":'"$i"'}}') \
        || fail "submission $i failed"
    if [ "$code" = "429" ]; then
        shed=$i
        cp "$WORKDIR/submit.headers" "$WORKDIR/shed.headers"
        cp "$WORKDIR/submit.json" "$WORKDIR/shed.json"
    fi
    i=$((i + 1))
done
[ -n "$shed" ] || fail "six submissions to a depth-4 queue drew no 429"
grep -qi '^Retry-After: *[1-9]' "$WORKDIR/shed.headers" \
    || fail "429 without a Retry-After header: $(cat "$WORKDIR/shed.headers")"
grep -q '"reason": *"queue_full"' "$WORKDIR/shed.json" \
    || fail "429 body lacks reason queue_full: $(cat "$WORKDIR/shed.json")"

echo "==> waiting for readiness to flip"
i=0
while [ "$i" -lt 150 ]; do
    code=$(curl -s -o "$WORKDIR/readyz.json" -w '%{http_code}' "$BASE/readyz")
    [ "$code" = "503" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ "$code" = "503" ] || fail "/readyz never returned 503 under saturation"
grep -q '"ready": *false' "$WORKDIR/readyz.json" \
    || fail "503 /readyz body does not say ready=false"
grep -q 'queue saturated' "$WORKDIR/readyz.json" \
    || fail "/readyz reason is not queue saturation: $(cat "$WORKDIR/readyz.json")"

echo "==> waiting for the queue-hot alert to fire"
wait_for "$BASE/v1/alerts" '"state": *"firing"' "no alert ever fired"
alerts=$(curl -fsS "$BASE/v1/alerts") || fail "/v1/alerts unreadable"
printf '%s\n' "$alerts" > alerts-smoke.json
echo "$alerts" | grep -q '"rule": *"queue-hot"' \
    || fail "firing alert is not the queue_saturation rule: $alerts"
echo "$alerts" | grep -q '"subject": *"queue"' \
    || fail "queue-hot alert has the wrong subject: $alerts"

echo "==> checking womd_alert_* families on /metrics"
prom=$(curl -fsS "$BASE/metrics") || fail "/metrics unreadable"
echo "$prom" | grep -q 'womd_alerts{state="firing"} [1-9]' \
    || fail "womd_alerts firing gauge is not counting"
echo "$prom" | grep -q 'womd_alert_firing{rule="queue-hot",subject="queue"} 1' \
    || fail "womd_alert_firing sample missing"
echo "$prom" | grep -q 'womd_alert_transitions_total{state="firing"} [1-9]' \
    || fail "firing transition counter missing"

echo "==> OK: overflow shed with queue_full, saturation flipped /readyz, fired queue-hot, and landed on /metrics"
