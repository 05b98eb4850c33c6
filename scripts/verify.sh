#!/usr/bin/env bash
# Tier-1 verification (`cargo test -q` runs every crate's tests, the
# parallel-determinism contract included) plus lint and the CLI/server
# smokes. Everything runs offline with the std toolchain only.
# Timing lives in perfbench (`python3 perfbench/run.py`), not here.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> lint: clippy perf pass (hot-path regressions surface as warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --quiet -- -W clippy::perf
else
    echo "    (clippy not installed; skipped)"
fi

echo "==> perfbench: still builds against the workspace crates (outside the workspace)"
cargo check --offline --quiet --manifest-path perfbench/Cargo.toml

echo "==> trace: RUN_REPORT.json smoke — metrics tail identical across thread counts"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
for t in 1 2 8; do
    WEBSTRUCT_TRACE=json WEBSTRUCT_THREADS=$t \
        ./target/release/webstruct trace reproduce 0.05 "$TRACE_TMP/t$t" >/dev/null
    [[ -f "$TRACE_TMP/t$t/RUN_REPORT.json" ]] || {
        echo "    FAIL: no RUN_REPORT.json at $t threads"; exit 1; }
    [[ -f "$TRACE_TMP/t$t/trace.json" ]] || {
        echo "    FAIL: no trace.json at $t threads"; exit 1; }
    # "metrics" is by contract the final key of RUN_REPORT.json, so the
    # deterministic tail can be split off with a single sed.
    sed -n '/"metrics":/,$p' "$TRACE_TMP/t$t/RUN_REPORT.json" > "$TRACE_TMP/metrics-$t"
    grep -q '"runner.figures"' "$TRACE_TMP/metrics-$t" || {
        echo "    FAIL: runner counters missing from metrics tail"; exit 1; }
done
for t in 2 8; do
    diff -u "$TRACE_TMP/metrics-1" "$TRACE_TMP/metrics-$t" >/dev/null || {
        echo "    FAIL: metrics tail diverged between 1 and $t threads"
        diff -u "$TRACE_TMP/metrics-1" "$TRACE_TMP/metrics-$t" | head -20
        exit 1
    }
done
echo "    trace smoke OK (metrics byte-identical across threads 1/2/8)"

echo "==> stream: out-of-core render -> shards -> extract at scale 0.1"
./target/release/webstruct stream 0.1 "$TRACE_TMP/shards" 4 | sed 's/^/    /'

echo "==> scrub: full integrity pass (every byte re-hashed) over the streamed store"
./target/release/webstruct scrub "$TRACE_TMP/shards" | sed 's/^/    /'

echo "==> epoch: 1%-mutation incremental re-run (dirty slice only, cache replay)"
./target/release/webstruct epoch banks 0.05 "$TRACE_TMP/epoch" 0.01 | sed 's/^/    /'

echo "==> serve: smoke — boot --watch on an ephemeral port, hit three endpoints, clean shutdown"
./target/release/webstruct serve --watch restaurants 0.02 "$TRACE_TMP/serve-store" 0 \
    > "$TRACE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "serving on" "$TRACE_TMP/serve.log" 2>/dev/null && break
    sleep 0.1
done
SERVE_URL="$(grep -o 'http://[0-9.:]*' "$TRACE_TMP/serve.log" | head -1)"
if [[ -z "$SERVE_URL" ]]; then
    echo "    FAIL: server did not come up"; cat "$TRACE_TMP/serve.log"; exit 1
fi
# Prefer curl; fall back to the bundled std-only client on bare runners.
http_get() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1" >/dev/null
    else
        ./target/release/webstruct http GET "$1" >/dev/null
    fi
}
for ep in / /coverage /sites; do
    http_get "$SERVE_URL$ep" || { echo "    FAIL: GET $ep"; exit 1; }
done

echo "==> serve: cache smoke — repeat hit, ETag 304 revalidation, live epoch swap"
# Reconstruct the epoch ETag from the coverage body: "{epoch}-{first 16
# hex of the output digest}", quoted.
COV_BODY="$(./target/release/webstruct http GET "$SERVE_URL/coverage" 2>/dev/null)"
COV_EPOCH="$(echo "$COV_BODY" | grep -o '"epoch": *[0-9]*' | head -1 | grep -o '[0-9]*$')"
COV_DIGEST="$(echo "$COV_BODY" | grep -o '"output_digest": *"[0-9a-f]*"' | head -1 | grep -o '[0-9a-f]\{64\}')"
ETAG="\"${COV_EPOCH}-${COV_DIGEST:0:16}\""
# A conditional replay of the same validator must draw an empty-body 304
# (the client exits 0 on 304).
BODY_304="$(./target/release/webstruct http GET "$SERVE_URL/coverage" "$ETAG" 2>/dev/null)" || {
    echo "    FAIL: conditional GET /coverage"; exit 1; }
[[ -z "$BODY_304" ]] || { echo "    FAIL: 304 must carry an empty body"; exit 1; }
# The repeated plain hits above must have landed in the response cache.
./target/release/webstruct http GET "$SERVE_URL/metrics" 2>/dev/null \
    | grep -q '"serve.cache.hits": *[1-9]' || {
    echo "    FAIL: no serve.cache.hits recorded for repeated GETs"; exit 1; }
# Trigger a live epoch swap and wait for the publish.
./target/release/webstruct http POST "$SERVE_URL/admin/epoch?fraction_bp=100&seed=7" >/dev/null || {
    echo "    FAIL: POST /admin/epoch"; exit 1; }
SWAPPED=""
for _ in $(seq 1 100); do
    if ./target/release/webstruct http GET "$SERVE_URL/metrics" 2>/dev/null \
        | grep -q '"serve.cache.swaps": *[1-9]'; then
        SWAPPED=1; break
    fi
    sleep 0.1
done
[[ -n "$SWAPPED" ]] || { echo "    FAIL: epoch swap did not publish"; exit 1; }
# The pre-swap validator is now stale: the same conditional GET must
# draw the fresh full-bodied 200.
BODY_STALE="$(./target/release/webstruct http GET "$SERVE_URL/coverage" "$ETAG" 2>/dev/null)" || {
    echo "    FAIL: stale conditional GET /coverage"; exit 1; }
[[ -n "$BODY_STALE" ]] || {
    echo "    FAIL: stale validator must draw the full 200 after the swap"; exit 1; }
echo "    cache smoke OK (hit counters, 304 revalidation, swap + stale validator)"

if command -v curl >/dev/null 2>&1; then
    curl -fsS -X POST "$SERVE_URL/shutdown" >/dev/null
else
    ./target/release/webstruct http POST "$SERVE_URL/shutdown" >/dev/null
fi
wait "$SERVE_PID" || {
    echo "    FAIL: server exited nonzero (accounting inconsistent?)"
    cat "$TRACE_TMP/serve.log"; exit 1
}
echo "    serve smoke OK ($SERVE_URL: /, /coverage, /sites, clean shutdown)"

echo "==> verify OK"
