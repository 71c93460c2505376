#!/usr/bin/env sh
# tenants_smoke.sh — end-to-end multi-tenant scheduling check against a
# real womd.
#
# Builds womd, starts it with the example tenant config, submits a few
# small jobs for the interactive tenant with curl, verifies they land in
# the per-tenant admission counter on /metrics, and exercises the SIGHUP
# config hot-reload path.
#
# Usage: scripts/tenants_smoke.sh [port]
set -eu

PORT="${1:-18090}"
URL="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
WOMD_PID=""
JOBS=3

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

echo "==> starting womd on :$PORT with examples/multitenant/tenants.json"
"$WORKDIR/womd" -addr ":$PORT" -tenants examples/multitenant/tenants.json \
    >"$WORKDIR/womd.log" 2>&1 &
WOMD_PID=$!
wait_for "$URL/v1/experiments" '"fig5"' "womd never came up"
wait_for "$URL/v1/tenants" '"interactive"' "tenant scheduler not active"

echo "==> submitting $JOBS interactive jobs"
i=1
while [ "$i" -le "$JOBS" ]; do
    curl -fsS -X POST "$URL/v1/jobs" -d \
        "{\"experiment\":\"fig5\",\"tenant\":\"interactive\",\"params\":{\"requests\":2000,\"seed\":$i,\"bench\":[\"qsort\"],\"ranks\":4}}" \
        >/dev/null || fail "submit $i rejected"
    i=$((i + 1))
done

echo "==> tenant metrics exposed on /metrics"
wait_for "$URL/metrics" "womd_tenant_admitted_total{tenant=\"interactive\"} $JOBS" \
    "interactive admissions missing from womd_tenant_admitted_total"

echo "==> SIGHUP hot-reload keeps the scheduler serving"
kill -HUP "$WOMD_PID"
sleep 0.3
wait_for "$URL/v1/tenants" '"best-effort"' "scheduler unavailable after SIGHUP"
grep -q 'tenant config reloaded' "$WORKDIR/womd.log" \
    || fail "womd log missing the reload confirmation"

echo "==> OK: $JOBS interactive jobs admitted, SIGHUP reload served"
