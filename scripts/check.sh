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

cargo build --release --workspace
cargo test -q --workspace
# The f32 GEMM tiers (portable, AVX2, AVX-512) race the scalar kernel bit
# for bit in tr-tensor's tests; run them on optimized code too, where the
# optimizer unrolls and vectorizes the block bodies they check.
cargo test -q --release -p tr-tensor
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
# empty artifact means the gate never passed.
cargo run -q --release -p tr-bench --bin repro -- --quick prove
test -s CERTS_PR7.json
# Serving resilience: the multi-threaded panic/deadline soak in release
# mode (the dev-profile run is part of `cargo test` above), then the
# quick serve experiment end to end — ladder shedding, fault latch,
# poison quarantine, exact request conservation (DESIGN.md SS9).
cargo test -q --release -p tr-serve --test soak
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
cargo run -q --release -p tr-bench --bin repro -- --quick soak
test -s SOAK_PR8.json
# Kernel autotune: the seeded micro-autotuner measures the dispatch
# crossovers on this host and seals them into TUNE_PR10.json
# (DESIGN.md SS16). The bench run below replays that table, so the
# kernel sections are benched under the exact dispatch policy the
# artifact names.
cargo run -q --release -p tr-bench --bin repro -- --quick tune
test -s TUNE_PR10.json
# Kernel baseline: the bench experiment must produce its schema-stable
# JSON artifact (DESIGN.md SS10): the packed core rows, the bit-plane
# popcount-GEMM sweep scored on paired reps with per-ISA gates, the
# deep-K blocking gate (DESIGN.md SS15-16), the checksum-verify
# overhead gate, and the core drift verdict against the committed
# BENCH_PR9.json baseline (DESIGN.md SS11). Served tail latency is
# gated by perfbench's mlp_serve workload, not here. CI archives both
# artifacts.
cargo run -q --release -p tr-bench --bin repro -- --quick bench
test -s BENCH_PR10.json
