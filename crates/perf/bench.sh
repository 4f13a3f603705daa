#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the suite's CLI and gb-perf from the
# checkout it is started in, then hands its arguments to `gb-perf run`:
#   --workload W --seed N --seconds S --trace 0|1
# The workspace's crates.io dependencies come from the registry where cargo
# can resolve them, which is the build users have. Where it cannot — a
# sandbox without a registry — the build is repeated against the stand-ins
# under crates/perf/offline; gb-perf's host block records which one ran, and
# `gb-perf diff` refuses to compare across the two. One failed look-up, not
# cargo's retries: the script runs once per measurement.
# Cargo's output goes to stderr; the last line of stdout is the result.
set -euo pipefail
build() { cargo build --release --quiet "$@" -p gb-suite -p gb-perf >&2; }
if ! CARGO_NET_RETRY=0 build 2>/dev/null; then
    echo "bench.sh: plain build failed; building against crates/perf/offline" >&2
    build --config crates/perf/offline/config.toml
fi
exec "${CARGO_TARGET_DIR:-target}/release/gb-perf" run "$@"
