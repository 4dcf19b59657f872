#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, build, and the full test suite.
# The workspace has zero external dependencies, so every step below works
# without network access (no `cargo fetch` required).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> kernel bench smoke (regression thresholds + 4-byte NodeRef / 12-byte node gate)"
./target/release/paper kernel --smoke --check --out /tmp/bench_bdd_kernel_smoke.json

echo "==> generated C is byte-identical across --jobs values on every example spec"
rm -rf /tmp/polis_ci_synth
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j1" --jobs 1 >/dev/null
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j4" --jobs 4 >/dev/null
  diff -r "/tmp/polis_ci_synth/$name.j1" "/tmp/polis_ci_synth/$name.j4" \
    || { echo "FAIL: $spec synthesis output differs between --jobs 1 and --jobs 4"; exit 1; }
done

echo "==> synth --trace writes a sift stage with swap counters"
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  trace="/tmp/polis_ci_synth_trace_$name.json"
  rm -f "$trace"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.traced" --trace "$trace" >/dev/null
  for field in '"swaps":' '"swap_rewrites":'; do
    grep -A 12 -F '"stage": "sift"' "$trace" | grep -qF "$field" \
      || { echo "FAIL: $trace has no sift stage with $field"; exit 1; }
  done
done

echo "==> paper harnesses: every shape-check verdict matches scripts/harness_verdicts.txt"
# A verdict that flips either way fails, including the VIOLATED lines of
# the open Table III / granularity regression (ROADMAP.md, first item).
./target/release/paper check

echo "==> symbolic verification of the example networks"
for spec in examples/specs/*.pol; do
  echo "--- polis verify $spec"
  ./target/release/polis verify "$spec"
done

echo "==> verify --trace writes a verify stage with the descent counter; unknown flags are rejected"
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  trace="/tmp/polis_ci_verify_$name.json"
  rm -f "$trace"
  ./target/release/polis verify "$spec" --props --trace "$trace" >/dev/null
  grep -A 8 -F '"stage": "verify"' "$trace" | grep -qF '"descent_nodes":' \
    || { echo "FAIL: $trace has no verify stage with \"descent_nodes\""; exit 1; }
  if ./target/release/polis verify "$spec" --no-such-flag >/dev/null 2>&1; then
    echo "FAIL: polis verify $spec accepted --no-such-flag"; exit 1
  fi
done

echo "==> property suites: exact verdicts on every example spec"
# Each example ships one deliberately violated `assert never` whose
# decoded counterexample the test suite replays; the CLI gate here pins
# the verdict lines themselves.
check_props() {
  local spec="$1"; shift
  local out
  echo "--- polis verify $spec --props"
  out="$(./target/release/polis verify "$spec" --props)"
  for want in "$@"; do
    grep -qF "$want" <<<"$out" \
      || { echo "FAIL: $spec missing verdict: $want"; echo "$out"; exit 1; }
  done
}
check_props examples/specs/simple.pol \
  "properties: 2 checked, 1 violated" \
  "assert reachable simple.c: holds" \
  "assert never (simple@awaiting && simple.c): VIOLATED"
check_props examples/specs/seat_belt.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable belt_control@alarm: holds" \
  "assert never (belt_control@off && belt_control@waiting): holds" \
  "assert never (belt_control@alarm && belt_control.belt_on): VIOLATED"
check_props examples/specs/shock_absorber.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable mode@sport: holds" \
  "assert never (mode@comfort && mode@sport): holds" \
  "assert never (watchdog@starving && act.pwm_tick): VIOLATED"
check_props examples/specs/dashboard.pol \
  "properties: 3 checked, 1 violated" \
  "assert reachable (frc@saturated && rpc@saturated): holds" \
  "assert never (frc@counting && frc@saturated): holds" \
  "assert never (speedo.wticks && odometer.wticks): VIOLATED"

echo "==> verify bench smoke (sanity thresholds + deterministic regression gate)"
./target/release/paper verify --smoke --check --gate BENCH_verify.json --out /tmp/bench_verify_smoke.json

echo "==> benchmark self-test (pinned verdicts, relay-chain closed form, trace replay)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
