#!/usr/bin/env bash
# Smoke test for the serving stack: build rarserved and rarload with the
# race detector, stand a server up on an ephemeral port, drive it with a
# deterministic hot/cold request mix, and require zero request errors
# plus at least one cross-request dedup hit (rarload -assert-dedup).
# A second wave must be answered entirely from cache (no new sims).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid"
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -race -o "$tmp/rarserved" ./cmd/rarserved
go build -race -o "$tmp/rarload" ./cmd/rarload

"$tmp/rarserved" -addr 127.0.0.1:0 -cache "$tmp/cache" > "$tmp/server.log" 2>&1 &
server_pid=$!

# The server prints "listening on <addr>" once the listener is bound.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$tmp/server.log")
    [ -n "$addr" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: server died at startup:" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: server never reported its address" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi

echo "serve-smoke: cold wave against $addr"
"$tmp/rarload" -addr "$addr" -wait 10s -requests 24 -concurrency 8 \
    -n 20000 -hot 0.75 -assert-dedup

echo "serve-smoke: warm wave (must not simulate anything new)"
before=$(curl -sf "http://$addr/metrics" | sed 's/.*"simulated":\([0-9]*\).*/\1/')
"$tmp/rarload" -addr "$addr" -requests 24 -concurrency 8 \
    -n 20000 -hot 0.75 -assert-dedup
after=$(curl -sf "http://$addr/metrics" | sed 's/.*"simulated":\([0-9]*\).*/\1/')
if [ "$before" != "$after" ]; then
    echo "serve-smoke: warm wave simulated $((after - before)) new cells, want 0" >&2
    exit 1
fi

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "serve-smoke: server exited non-zero on SIGTERM" >&2
    cat "$tmp/server.log" >&2
    exit 1
fi
server_pid=""
echo "serve-smoke: ok"
