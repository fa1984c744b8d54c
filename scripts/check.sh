#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   scripts/check.sh          # build + tests (the CI tier-1 definition)
#   scripts/check.sh --full   # also rustfmt + clippy + release test run
#
# The figure/table binaries and benches are exercised by the test suite;
# BENCH_sim_dispatch.json / BENCH_sim_blocks.json / BENCH_sim_traces.json are
# refreshed manually via
#   SMALLFLOAT_BENCH_JSON=out.json cargo bench -p smallfloat-bench --bench <name>
# and BENCH_serving.json via
#   cargo run --release -p smallfloat-bench --bin serve_bench -- --json BENCH_serving.json
# and BENCH_training.json via
#   cargo run --release -p smallfloat-bench --bin train_table -- --json BENCH_training.json
#
# The basic-block micro-op cache and the superblock trace tier stacked on it
# are both on by default; SMALLFLOAT_NOBLOCKS=1 forces every Cpu::run onto the
# per-instruction path and SMALLFLOAT_NOTRACES=1 disables just the trace tier.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> binary8 + binary8alt (E4M3) exhaustive differential suites + sampled 16/32-bit and host-f64 boundary suite + host-binary64 tier boundary cases + batch lane helpers (release)"
cargo test --release -q -p smallfloat-softfp --test fastpath_b8_exhaustive --test fastpath_b8alt_exhaustive --test fastpath_sampled --test fastpath_boundary --test batch_lanes_sampled

echo "==> isa/asm round-trip property suites (.ab mnemonics, vfsdotpex, alt-bank edges)"
cargo test --release -q -p smallfloat-isa --test roundtrip
cargo test --release -q -p smallfloat-asm

echo "==> three-tier differential grid (reference vs blocks vs traces) + golden trace (release)"
cargo test --release -q -p smallfloat-sim --test blockpath_differential --test golden_trace

echo "==> snapshot/restore + record-replay gates (release)"
cargo test --release -q -p smallfloat-sim --test snapshot_roundtrip --test replay

echo "==> replay fleet: rotating subset, alternating engine tiers (segment-parallel differential testrunner)"
cargo run --release -q -p smallfloat-bench --bin testrunner

echo "==> vdotpex4_f8 exhaustive differential suite (release)"
cargo test --release -q -p smallfloat-softfp --test vdotpex4_f8_differential

echo "==> nn QoR + training regression suite (release: end-to-end formats/modes, manual-SIMD floors, pinned tuned assignments; training smoke = few-step loss parity vs the f64 reference, pinned golden loss bits under block+trace engines, FD gradient checks. The per-pass training tuner grid runs under --full)"
cargo test --release -q -p smallfloat-nn -- --skip per_pass

echo "==> cluster + trace-profitability gates (release)"
cargo test --release -q -p smallfloat-cluster
cargo test --release -q -p smallfloat-sim --test trace_profit --test concurrent_forks
cargo test --release -q -p smallfloat-bench --test nn_trace_regression

echo "==> serving smoke: small batch on 1 and 2 cores, every request replayed on the single-core reference"
cargo run --release -q -p smallfloat-bench --bin serve_bench -- --smoke

if [[ "${1:-}" == "--full" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --check
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo test --workspace --release -q (includes the per-pass training tuner grid: pinned MLP assignment, frontier dominance, worker-count independence)"
    cargo test --workspace --release -q
    echo "==> replay fleet: full workload x precision x mode grid, both engine tiers"
    cargo run --release -q -p smallfloat-bench --bin testrunner -- --full
    echo "==> cargo doc --no-deps --workspace (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
fi

echo "OK"
