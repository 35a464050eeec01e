#!/usr/bin/env bash
# The full local gate: release build, the whole test suite, the
# benchmark package's build, tests and self-tests, clippy over every target with
# warnings denied (the workspace cast/unwrap lints now cover every
# crate, tests and benches included), rustdoc with warnings denied, the
# static bit-width proof of the hardware datapath, the whole-model
# soundness certificates, and the serving resilience smoke. CI mirrors
# this; run it before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
# A run must leave the tracked files as it found them: every artifact it
# writes goes under target/, and a rewritten tracked file (a repro
# artifact, or perfbench/Cargo.lock, which its unlocked build may
# rewrite) fails the gate at the end.
status_before=$(git status --porcelain)
# The repro artifacts land here, so a run leaves the committed files as
# they are.
out=target/artifacts
mkdir -p "$out"

cargo build --release --workspace
cargo test -q --workspace
# The f32 GEMM tiers (portable, AVX2, AVX-512) of `matmul_into` and of
# the lane-parallel `matmul_transb` race their scalar kernels bit for bit
# in tr-tensor's tests, tr-quant's slice quantizer tiers race
# the scalar `code`, and tr-core's narrow code-plane tiers (baseline,
# AVX2, AVX-512BW) race the i64 loop and the term-pair walk, fallback
# cases included; run them on optimized code too, where the optimizer
# unrolls and vectorizes the bodies they check.
cargo test -q --release -p tr-tensor
cargo test -q --release -p tr-quant
cargo test -q --release -p tr-core
# Conv2d's eval forward (`conv2d_into`, patches read from a zero-padded
# image) must give the bits of its training forward (im2col, then the
# GEMM) at every zoo conv geometry; check that on optimized code too.
cargo test -q --release -p tr-nn
# The end-to-end benchmark is its own Cargo workspace over the crates'
# public APIs: building and testing it here makes an API change that
# breaks it fail this gate, not the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# The benchmark's self-tests: its metric catalog equals BENCHMARK.json, a
# short run of every workload (plain and traced) reports every metric and
# passes its gates, traced replay bit identity included, and an injected
# wrong prediction or tampered rung fails them. Nothing else runs these.
# They build into $CARGO_TARGET_DIR (default `.bench_build`); on a cold
# zoo cache, with no `perfbench-zoo` beside that build yet, the first run
# trains the MLP and VGG checkpoints, which adds a few minutes.
python3 perfbench/test_bench.py
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied: every intra-doc link must resolve, so a
# rename or deletion cannot leave a dangling reference in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo run -q --release -p tr-bench --bin repro -- verify-widths
# Whole-model soundness certificates: every default ladder rung of the
# three zoo models must be provably overflow-free, twice over and
# bit-identical, with the sealed table archived for tr-serve to
# enforce (DESIGN.md SS13). `prove` panics on any unproven rung, so an
# empty artifact means the gate never passed; the regenerated table must
# equal the committed one byte for byte.
TR_CERTS_OUT="$out/CERTS_PR7.json" cargo run -q --release -p tr-bench --bin repro -- --quick prove
cmp "$out/CERTS_PR7.json" CERTS_PR7.json
# Serving resilience: tr-serve's whole suite in release mode (the
# dev-profile run is part of `cargo test` above), so the multi-threaded
# panic/deadline soak and the timing-based batch-formation tests also run
# on optimized code; then the quick serve experiment end to end — ladder
# shedding, fault latch, poison quarantine, exact request conservation
# (DESIGN.md SS9).
cargo test -q --release -p tr-serve
cargo run -q --release -p tr-bench --bin repro -- --quick serve
# Chaos smoke: the end-to-end fault campaign — injected cache
# corruption detected and repaired via content checksums, retries,
# breakers, watchdog recycling, conservation in every scenario, and a
# bit-identical replay under fixed seeds (DESIGN.md SS12).
cargo run -q --release -p tr-bench --bin repro -- --quick chaos
# Sharded multi-tenant soak: the adversarial traffic campaign over the
# sharded service — tenant-hash dispatch with work stealing, per-tenant
# quotas and SLO-pinned ladders, two mid-soak hot swaps — asserting
# global AND per-tenant request conservation, zero SLO-pin violations,
# the generation audit, and a bit-identical plan digest across two
# seeded executions (DESIGN.md SS14). Any violated gate panics, so an
# empty artifact means the soak never passed.
TR_SOAK_OUT="$out/SOAK_PR8.json" cargo run -q --release -p tr-bench --bin repro -- --quick soak
test -s "$out/SOAK_PR8.json"
# Kernel timings: the bench experiment must produce its schema-stable
# JSON artifact (DESIGN.md SS10): the packed core rows and the
# checksum-verify overhead row. Served tail latency is gated by
# perfbench's mlp_serve workload, not here. CI archives the artifacts.
TR_BENCH_OUT="$out/BENCH_PR10.json" cargo run -q --release -p tr-bench --bin repro -- --quick bench
test -s "$out/BENCH_PR10.json"
# The working tree must be as the run found it (see the top).
status_after=$(git status --porcelain)
if [ "$status_after" != "$status_before" ]; then
    echo "check.sh: the run changed the working tree:" >&2
    diff <(echo "$status_before") <(echo "$status_after") >&2 || true
    exit 1
fi
