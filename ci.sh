#!/usr/bin/env bash
# Offline CI gate for the spinwave-repro workspace.
#
# Everything here must pass with no network access: the workspace is
# std-only and the proptest/criterion stand-ins are vendored in-tree
# (see DESIGN.md §7), so `--offline` is used throughout.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> criterion benches compile (opt-in feature, warnings are errors)"
cargo clippy --offline -p bench --benches --features criterion -- -D warnings

echo "==> rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> release harness binaries (repro, parbench)"
cargo build --release --offline --workspace

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> workspace tests"
cargo test -q --workspace --offline

echo "==> magnum tests with MAGNUM_THREADS=4 (parallel field engine)"
MAGNUM_THREADS=4 cargo test -q -p magnum --offline

echo "==> property suites (vendored proptest stand-in)"
cargo test --offline -q --features proptest
cargo test --offline -q -p magnum --features proptest
cargo test --offline -q -p swphys --features proptest

echo "==> perfbench tests (its own workspace; a magnum API break fails here)"
cargo test --offline --release -q --manifest-path perfbench/Cargo.toml

echo "==> micromagnetic Table II smoke (fast XOR truth table end to end, then a full resume)"
# repro exits non-zero unless XOR decodes at both outputs. The second run
# must skip all four pattern jobs through their manifest ids.
./target/release/repro table2 --fast --mumag --jobs 2 --fresh \
    --manifest target/ci-table2.manifest.jsonl
./target/release/repro table2 --fast --mumag --jobs 2 \
    --manifest target/ci-table2.manifest.jsonl 2> target/ci-table2-resume.log
grep -q 'resuming — 4/4' target/ci-table2-resume.log

echo "==> bigfft bench smoke (composite-padded grids, bitwise identity asserted in JSON)"
# 23x9 pads to 45x20: an odd padded width (a one-column strip 0) and an
# odd row count (an Ms*mz row with no packing partner). --min-cells 0
# turns the FFT clamp off, so these small grids really fan out at 2 threads.
./target/release/parbench --bigfft --grids 24x20,32x32,23x9 --evals 2 --threads 1,2 --min-cells 0 \
    --out target/BENCH_fft_smoke.json
grep -q '"bitwise_identical_to_serial":true' target/BENCH_fft_smoke.json
grep -q '"thread_scaling"' target/BENCH_fft_smoke.json
grep -q '"cpus"' target/BENCH_fft_smoke.json

echo "==> rhs bench smoke (asserts bitwise identity across threads and the clamp guard)"
./target/release/parbench --rhs --grids 32 --steps 10 --threads 1,2,4 \
    --out target/BENCH_rhs_smoke.json
test -s target/BENCH_rhs_smoke.json
grep -q '"cpus"' target/BENCH_rhs_smoke.json

echo "==> batch bench smoke (asserts batch/independent bitwise parity and >=1.5x at K=8)"
./target/release/parbench --batch --ks 1,4,8 --steps 1000 \
    --out target/BENCH_batch_smoke.json
test -s target/BENCH_batch_smoke.json

echo "==> netlist compiler smoke (rca16/mul4/table cases, fan-out legality asserted)"
./target/release/parbench --netlist --patterns 2048 \
    --out target/BENCH_netlist_smoke.json
test -s target/BENCH_netlist_smoke.json
./target/release/repro compile --demo full_adder > target/compile_smoke.json
grep -q '"legal":true' target/compile_smoke.json

echo "==> swserve smoke (boot, healthz, one gate eval byte-checked, graceful shutdown)"
rm -f target/swserve.addr
./target/release/repro serve --addr 127.0.0.1:0 --addr-file target/swserve.addr \
    --workers 1 --queue-depth 8 --manifest target/swrun/ci-serve.manifest.jsonl &
SERVE_PID=$!
for _ in $(seq 1 50); do
    test -s target/swserve.addr && break
    sleep 0.1
done
test -s target/swserve.addr
./target/release/parbench --probe "$(cat target/swserve.addr)" --shutdown
wait "$SERVE_PID"

echo "==> swserve loadtest smoke (all scenarios: RAM, cold store, warm restart, router, shard kill)"
./target/release/parbench --serve --connections 8 --requests 16 \
    --scenarios hot,cold,restart,router,kill \
    --out target/BENCH_serve_smoke.json
test -s target/BENCH_serve_smoke.json
grep -q '"scenario":"kill"' target/BENCH_serve_smoke.json

echo "==> distributed serving smoke (router + 2 shards, cached repeat, SIGKILL failover, drain)"
rm -f target/shard0.addr target/shard1.addr target/router.addr
rm -rf target/ci-store0 target/ci-store1
./target/release/repro serve --addr 127.0.0.1:0 --addr-file target/shard0.addr \
    --workers 1 --store target/ci-store0 &
SHARD0_PID=$!
./target/release/repro serve --addr 127.0.0.1:0 --addr-file target/shard1.addr \
    --workers 1 --store target/ci-store1 &
SHARD1_PID=$!
for _ in $(seq 1 50); do
    test -s target/shard0.addr && test -s target/shard1.addr && break
    sleep 0.1
done
test -s target/shard0.addr && test -s target/shard1.addr
./target/release/repro route --addr 127.0.0.1:0 --addr-file target/router.addr \
    --backend "$(cat target/shard0.addr)" --backend "$(cat target/shard1.addr)" &
ROUTER_PID=$!
for _ in $(seq 1 50); do
    test -s target/router.addr && break
    sleep 0.1
done
test -s target/router.addr
# Through the router: healthz, eval, cached byte-identical repeat.
PROBE_OUT=$(./target/release/parbench --probe "$(cat target/router.addr)" --expect-cached)
echo "$PROBE_OUT"
# SIGKILL the shard that answered; the same eval must still get 200.
HOME_SHARD=$(printf '%s\n' "$PROBE_OUT" | sed -n 's/^eval served by shard //p')
if [ "$HOME_SHARD" = "0" ]; then
    KILL_PID=$SHARD0_PID; SURVIVOR_PID=$SHARD1_PID; SURVIVOR_ADDR=$(cat target/shard1.addr)
else
    KILL_PID=$SHARD1_PID; SURVIVOR_PID=$SHARD0_PID; SURVIVOR_ADDR=$(cat target/shard0.addr)
fi
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true
./target/release/parbench --probe "$(cat target/router.addr)" --expect-cached
# Drain the router, then the surviving shard.
./target/release/parbench --probe "$(cat target/router.addr)" --shutdown
wait "$ROUTER_PID"
./target/release/parbench --probe "$SURVIVOR_ADDR" --shutdown
wait "$SURVIVOR_PID"

echo "CI OK"
