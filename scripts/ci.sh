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

echo "==> cargo examples run to completion"
for example in quickstart dashboard seatbelt shock_absorber; do
  cargo run -q --release --example "$example" >/dev/null \
    || { echo "FAIL: cargo example $example exited non-zero"; exit 1; }
done

echo "==> generated C is byte-identical across --jobs values on every example spec"
rm -rf /tmp/polis_ci_synth
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j1" --jobs 1 >/dev/null
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.j4" --jobs 4 >/dev/null
  diff -r "/tmp/polis_ci_synth/$name.j1" "/tmp/polis_ci_synth/$name.j4" \
    || { echo "FAIL: $spec synthesis output differs between --jobs 1 and --jobs 4"; exit 1; }
done

echo "==> emitted machine C is ISO C99 (every spec x style x buffering)"
# rtos.c is left out: the generated RTOS does not compile yet (ROADMAP).
CC="${CC:-cc}"
rm -rf /tmp/polis_ci_cc
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  for style in dg chain 2lvl; do
    for buffering in all minimal; do
      dir="/tmp/polis_ci_cc/$name.$style.$buffering"
      ./target/release/polis synth "$spec" -o "$dir" --style "$style" --buffering "$buffering" >/dev/null
      for c in "$dir"/*.c; do
        [ "$(basename "$c")" = rtos.c ] && continue
        "$CC" -std=c99 -pedantic-errors -fsyntax-only -I "$dir" "$c" \
          || { echo "FAIL: $c ($spec --style $style --buffering $buffering) does not compile"; exit 1; }
      done
    done
  done
done

echo "==> polis estimate prints a row per machine (every spec x style x buffering x target)"
for spec in examples/specs/*.pol; do
  machines="$(sed -n 's/^module \([A-Za-z_0-9]*\).*/\1/p' "$spec")"
  for style in dg chain 2lvl; do
    for buffering in all minimal; do
      for target in mcu8 risc32; do
        flags="--style $style --buffering $buffering --target $target"
        # shellcheck disable=SC2086
        out="$(./target/release/polis estimate "$spec" $flags)" \
          || { echo "FAIL: polis estimate $spec $flags exited non-zero"; exit 1; }
        for m in $machines; do
          grep -q "^$m " <<<"$out" \
            || { echo "FAIL: polis estimate $spec $flags has no row for $m"; echo "$out"; exit 1; }
        done
      done
    done
  done
done

echo "==> regression specs: synth and estimate never panic (every style); a bad spec is a line:col error; machine C is ISO C99; verify --props refuses a spec without properties"
rm -rf /tmp/polis_ci_regress
for spec in tests/specs/*.pol; do
  for style in dg chain 2lvl; do
    dir="/tmp/polis_ci_regress/$(basename "$spec" .pol).$style"
    for command in synth estimate; do
      args=("$command" "$spec" --style "$style")
      [ "$command" = synth ] && args+=(-o "$dir")
      status=0
      err="$(./target/release/polis "${args[@]}" 2>&1 >/dev/null)" || status=$?
      if [ "$status" -eq 101 ]; then
        echo "FAIL: polis ${args[*]} panicked"; echo "$err"; exit 1
      fi
      case "$spec" in
        *bad_init.pol | *duplicate_module.pol)
          [ "$status" -eq 1 ] && grep -qE "^polis: $spec:[0-9]+:[0-9]+: " <<<"$err" \
            || { echo "FAIL: polis ${args[*]} gave no line:col diagnostic (exit $status)"; echo "$err"; exit 1; } ;;
        *)
          [ "$status" -eq 0 ] \
            || { echo "FAIL: polis ${args[*]} exited $status"; echo "$err"; exit 1; }
          if [ "$command" = synth ]; then
            for c in "$dir"/*.c; do
              [ "$(basename "$c")" = rtos.c ] && continue
              "$CC" -std=c99 -pedantic-errors -fsyntax-only -I "$dir" "$c" \
                || { echo "FAIL: $c ($spec --style $style) does not compile"; exit 1; }
            done
          fi ;;
      esac
    done
  done
done

status=0
err="$(./target/release/polis verify tests/specs/no_transitions.pol --props 2>&1 >/dev/null)" || status=$?
[ "$status" -eq 1 ] && grep -qF "no properties block" <<<"$err" \
  || { echo "FAIL: polis verify tests/specs/no_transitions.pol --props did not refuse (exit $status)"; echo "$err"; exit 1; }

echo "==> synth --verify --refine runs on every example spec"
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.refined" --verify --refine >/dev/null \
    || { echo "FAIL: polis synth $spec --verify --refine exited non-zero"; exit 1; }
done

echo "==> synth --trace writes a sift stage with swap and restore counters"
for spec in examples/specs/*.pol; do
  name="$(basename "$spec" .pol)"
  trace="/tmp/polis_ci_synth_trace_$name.json"
  rm -f "$trace"
  ./target/release/polis synth "$spec" -o "/tmp/polis_ci_synth/$name.traced" --trace "$trace" >/dev/null
  for field in '"swaps":' '"swap_rewrites":' '"restores":'; do
    grep -A 12 -F '"stage": "sift"' "$trace" | grep -qF "$field" \
      || { echo "FAIL: $trace has no sift stage with $field"; exit 1; }
  done
done

echo "==> paper harnesses: every shape-check verdict matches scripts/harness_verdicts.txt"
# A verdict that flips either way fails.
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
# the verdict lines themselves and the `checked N properties` summary.
check_props() {
  local spec="$1" checked="$2"; shift 2
  local out
  echo "--- polis verify $spec --props"
  out="$(./target/release/polis verify "$spec" --props)"
  for want in "$@" "checked $checked properties in "; do
    grep -qF "$want" <<<"$out" \
      || { echo "FAIL: $spec missing verdict: $want"; echo "$out"; exit 1; }
  done
}
check_props examples/specs/simple.pol 2 \
  "properties: 2 checked, 1 violated" \
  "assert reachable simple.c: holds" \
  "assert never (simple@awaiting && simple.c): VIOLATED"
check_props examples/specs/seat_belt.pol 3 \
  "properties: 3 checked, 1 violated" \
  "assert reachable belt_control@alarm: holds" \
  "assert never (belt_control@off && belt_control@waiting): holds" \
  "assert never (belt_control@alarm && belt_control.belt_on): VIOLATED"
check_props examples/specs/shock_absorber.pol 3 \
  "properties: 3 checked, 1 violated" \
  "assert reachable mode@sport: holds" \
  "assert never (mode@comfort && mode@sport): holds" \
  "assert never (watchdog@starving && act.pwm_tick): VIOLATED"
check_props examples/specs/dashboard.pol 3 \
  "properties: 3 checked, 1 violated" \
  "assert reachable (frc@saturated && rpc@saturated): holds" \
  "assert never (frc@counting && frc@saturated): holds" \
  "assert never (speedo.wticks && odometer.wticks): VIOLATED"

echo "==> verify bench, every case (sanity thresholds + deterministic regression gate)"
# The full set, not --smoke: relay_chain_16 to relay_chain_32 are gated
# only here, and relay_chain_32 is the one case that collects mid-reach.
./target/release/paper verify --gate BENCH_verify.json --out /tmp/bench_verify.json

echo "==> generated-code gate: code bytes, RAM, cycles and peak live nodes equal BENCH_synth.json (any change fails)"
./target/release/paper synth --gate BENCH_synth.json --out /tmp/bench_synth.json

echo "==> benchmark self-test (pinned verdicts, relay-chain closed form, trace replay)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
