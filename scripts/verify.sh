#!/usr/bin/env bash
# Tier-1 verification (`cargo test -q` runs every crate's tests, the
# parallel-determinism contract, the `webstruct serve --watch` smoke in
# tests/serve.rs and the `epoch`/`scrub`/`repair` round trip in
# tests/durability.rs::cli_epoch_scrub_repair_round_trip included) plus
# lint and the CLI smokes. Everything runs offline with the std toolchain only.
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
# `extensions` runs the three crawl families, so its tail carries the
# `crawl.*` and `fetch.*` counters of every simulated crawl, and the
# linkage family, so it carries `dedup.pairs_scored`.
for cmd in reproduce extensions; do
    for t in 1 2 8; do
        out="$TRACE_TMP/$cmd-t$t"
        WEBSTRUCT_TRACE=json WEBSTRUCT_THREADS=$t \
            ./target/release/webstruct trace "$cmd" 0.05 "$out" >/dev/null
        [[ -f "$out/RUN_REPORT.json" ]] || {
            echo "    FAIL: no $cmd RUN_REPORT.json at $t threads"; exit 1; }
        [[ -f "$out/trace.json" ]] || {
            echo "    FAIL: no $cmd trace.json at $t threads"; exit 1; }
        # "metrics" is by contract the final key of RUN_REPORT.json, so the
        # deterministic tail can be split off with a single sed.
        sed -n '/"metrics":/,$p' "$out/RUN_REPORT.json" > "$TRACE_TMP/metrics-$cmd-$t"
        grep -q '"runner.figures"' "$TRACE_TMP/metrics-$cmd-$t" || {
            echo "    FAIL: runner counters missing from $cmd metrics tail"; exit 1; }
    done
    for t in 2 8; do
        diff -u "$TRACE_TMP/metrics-$cmd-1" "$TRACE_TMP/metrics-$cmd-$t" >/dev/null || {
            echo "    FAIL: $cmd metrics tail diverged between 1 and $t threads"
            diff -u "$TRACE_TMP/metrics-$cmd-1" "$TRACE_TMP/metrics-$cmd-$t" | head -20
            exit 1
        }
    done
done
grep -q '"fetch.attempts"' "$TRACE_TMP/metrics-extensions-1" || {
    echo "    FAIL: fetch counters missing from extensions metrics tail"; exit 1; }
grep -q '"dedup.pairs_scored"' "$TRACE_TMP/metrics-extensions-1" || {
    echo "    FAIL: dedup counter missing from extensions metrics tail"; exit 1; }
echo "    trace smoke OK (reproduce and extensions metrics byte-identical across threads 1/2/8)"

echo "==> epoch: 1%-mutation incremental re-run (dirty slice only, cache replay) — identical across thread counts"
for t in 1 2 8; do
    WEBSTRUCT_TRACE=json WEBSTRUCT_THREADS=$t \
        ./target/release/webstruct epoch banks 0.05 "$TRACE_TMP/epoch-t$t" 0.01 \
        > "$TRACE_TMP/epoch-$t.out" 2> "$TRACE_TMP/epoch-$t.err" || {
        echo "    FAIL: epoch run at $t threads"; cat "$TRACE_TMP/epoch-$t.err"; exit 1; }
    [[ "$(grep -c 'output digest' "$TRACE_TMP/epoch-$t.out")" == 2 ]] || {
        echo "    FAIL: expected two output digests at $t threads"; exit 1; }
    [[ -f "$TRACE_TMP/epoch-t$t/RUN_REPORT.json" ]] || {
        echo "    FAIL: no epoch RUN_REPORT.json at $t threads"; exit 1; }
    { grep 'output digest' "$TRACE_TMP/epoch-$t.out"
      sed -n '/"metrics":/,$p' "$TRACE_TMP/epoch-t$t/RUN_REPORT.json"; } > "$TRACE_TMP/epoch-cmp-$t"
done
sed 's/^/    /' "$TRACE_TMP/epoch-1.out"
for t in 2 8; do
    diff -u "$TRACE_TMP/epoch-cmp-1" "$TRACE_TMP/epoch-cmp-$t" >/dev/null || {
        echo "    FAIL: epoch digests or metrics tail diverged between 1 and $t threads"
        diff -u "$TRACE_TMP/epoch-cmp-1" "$TRACE_TMP/epoch-cmp-$t" | head -20
        exit 1
    }
done
echo "    epoch smoke OK (output digests and metrics tail byte-identical across threads 1/2/8)"

echo "==> verify OK"
