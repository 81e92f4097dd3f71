#!/usr/bin/env bash
# Checks the benchmark itself: its unit tests, then every workload in
# --smoke mode (Scale::Tiny, one set-up, two rounds; each under 20 s),
# untraced and traced, and that the four sets of result files read back.
# Run from anywhere; needs no network.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

out="benchmark/out/smoke"
rm -rf "$out"
for workload in interactive fill_down ingest_mixed rebuild_restart; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --trace "$trace" --smoke --out "$out" >/dev/null
    done
done
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- spread "$out"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- compare "$out" "$out"
