#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline, with no network access
# and no dependencies outside the Rust toolchain (the workspace is
# std-only). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors: a dangling intra-doc link fails the build)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== non-test lines per crate (lines before the first #[cfg(test)] mod of every crates/*/src/**/*.rs)"
# The size PRs report, as a command. Every crate is in one group, and every
# group may only shrink: the two driver crates, the gpu-sim substrate, the
# bench + obs harness, and the core + lattice + lbm-serve library the drivers
# and the fleet stand on. Lower DRIVER_LINES_MAX / SUBSTRATE_LINES_MAX /
# HARNESS_LINES_MAX / LIBRARY_LINES_MAX when a PR lands below it; raise one
# only with a sentence in CHANGES.md saying what the lines bought. A
# `#[cfg(test)]` on anything but a `mod` (a test-only helper method) does
# not end the count.
DRIVER_LINES_MAX=6887
SUBSTRATE_LINES_MAX=3235
HARNESS_LINES_MAX=4196
LIBRARY_LINES_MAX=6088
driver_lines=0
substrate_lines=0
harness_lines=0
library_lines=0
for crate in crates/*/; do
  lines=$(find "$crate/src" -name '*.rs' -exec awk '
    FNR == 1 { on = 1; held = "" }
    on && held != "" {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { on = 0; next }
      print held; held = ""
    }
    on && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
    on' {} + | wc -l)
  printf '%8d  %s\n' "$lines" "$(basename "$crate")"
  case "$(basename "$crate")" in
  lbm-gpu | lbm-multi) driver_lines=$((driver_lines + lines)) ;;
  gpu-sim) substrate_lines=$lines ;;
  bench | obs) harness_lines=$((harness_lines + lines)) ;;
  core | lattice | lbm-serve) library_lines=$((library_lines + lines)) ;;
  esac
done
printf '%8d  lbm-gpu + lbm-multi (max %d)\n' "$driver_lines" "$DRIVER_LINES_MAX"
printf '%8d  gpu-sim (max %d)\n' "$substrate_lines" "$SUBSTRATE_LINES_MAX"
printf '%8d  bench + obs (max %d)\n' "$harness_lines" "$HARNESS_LINES_MAX"
printf '%8d  core + lattice + lbm-serve (max %d)\n' "$library_lines" "$LIBRARY_LINES_MAX"
test "$driver_lines" -le "$DRIVER_LINES_MAX"
test "$substrate_lines" -le "$SUBSTRATE_LINES_MAX"
test "$harness_lines" -le "$HARNESS_LINES_MAX"
test "$library_lines" -le "$LIBRARY_LINES_MAX"

echo "== every unsafe site states its invariant (a // SAFETY: comment just above it)"
# The comment block above an `unsafe` block or impl must hold `SAFETY:`; one
# code line (the head of the statement the block sits in) may come between.
# Each site needs its own comment: a site consumes the one above it.
unsafe_sites=0
for file in $(git grep -lw unsafe -- 'crates/*/src/*.rs' 'crates/*/src/**/*.rs'); do
  sites=$(awk -v f="$file" '
    /^[[:space:]]*\/\// { if (/SAFETY:/) { armed = 1; code = 0 } next }
    /(^|[^[:alnum:]_])unsafe([[:space:]]|\{)/ {
      n++
      if (!armed || code > 1) { printf "%s:%d: unsafe without a SAFETY comment\n", f, FNR > "/dev/stderr"; bad = 1 }
      armed = 0; next
    }
    { code++ }
    END { if (bad) exit 1; print n + 0 }' "$file")
  unsafe_sites=$((unsafe_sites + sites))
done
printf '%8d  unsafe sites, each with a SAFETY comment\n' "$unsafe_sites"

echo "== one host (one impl of Simulation in the driver crates, no second host or sharded body trait, one host-thread path)"
# A second `impl Simulation` means a second host crept back in; `benchmark/`
# below is what proves the `lbm-multi` re-exports still resolve.
hosts=$(git grep -c "Simulation for" -- crates/lbm-gpu/src crates/lbm-multi/src | awk -F: '{ n += $2 } END { print n + 0 }')
test "$hosts" -eq 1
if git grep -nw "MultiSim\|ShardedBody" -- crates src tests examples; then
  exit 1
fi
# One host-thread path: set-up runs on the device's worker pool and the
# ring's team, as launches do; no scoped-thread split beside them.
if git grep -nw "parallel_ranges\|host_split" -- crates src; then
  exit 1
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test --release (scalar ≡ vector and the serve races on the optimized code the benchmark times)"
# The debug suite below proves the bitwise contract on unoptimized code;
# these two suites run again on the x86-64-v3 release codegen, at the speed
# that exposes scheduling races. One serve run takes a fraction of a second
# and a race can pass one run in many, so the serve suite runs ten times.
cargo test --release -q --test kernel_equivalence
for _ in $(seq 10); do
  cargo test --release -q --test serve
done

echo "== cargo test"
cargo test --workspace -q

echo "== codegen guard (the lane kernels are packed SIMD in the machine code, not only in the docs)"
# Emits the assembly of crates/bench's `codegen_probe_*` symbols (one generic
# lane-kernel call each, on a full chunk) and fails if a probe calls anything
# but a panic path, or if packed `pd` arithmetic does not outnumber scalar
# `sd` arithmetic 4 : 1. A jump (conditional or not) to a non-local label is
# a tail call and counts as a call: a probe that is one `jmp` into an
# out-of-line kernel has proved nothing about the kernel. LTO is off for
# this one compile: under `lto = "thin"` an rlib's assembly is the pre-link
# module, which no vectorizer has run over yet.
case "$(rustc -vV | sed -n 's/^host: //p')" in
x86_64-*)
  asm=$(mktemp)
  cargo rustc -q -p lbm-bench --release --lib --config 'profile.release.lto="off"' -- --emit "asm=$asm"
  for probe in codegen_probe_mr_p_d2q9 codegen_probe_mr_p_d3q19 codegen_probe_mr_p_d3q19_y_halo \
    codegen_probe_moments_from_f_d2q9 codegen_probe_moments_from_f_d3q19 \
    codegen_probe_sparse_gather_d2q9; do
    body=$(awk -v p="$probe:" '$0 == p { on = 1 } on { print } on && /\.cfi_endproc/ { exit }' "$asm")
    test -n "$body"
    # Every call counts; a jump counts unless it targets a local `.L` label
    # or dispatches through a register or a local jump table.
    calls=$(grep -E '^\s+(call\w*|j[a-z]+)\s' <<<"$body" | grep -vE '^\s+j[a-z]+\s+(\.L|\*%|\*\.L)' |
      grep -vE 'panic|_fail' || true)
    packed=$(grep -cE '^\s+v?(add|sub|mul|div)pd\s' <<<"$body" || true)
    scalar=$(grep -cE '^\s+v?(add|sub|mul|div)sd\s' <<<"$body" || true)
    printf '%8d packed %4d scalar  %s\n' "$packed" "$scalar" "$probe"
    if [ -n "$calls" ]; then
      printf 'out-of-line call in %s:\n%s\n' "$probe" "$calls"
      exit 1
    fi
    test "$packed" -gt 0 && test "$packed" -ge $((4 * scalar))
  done
  # Data-movement probes: the counted family pair's two arms, a row read
  # and write with no selection and a window read and write under a
  # run-time selection, with no arithmetic to count, held to the call rule
  # only. A short span that goes back to a run-time-length `memcpy` (a call
  # per plane) fails here.
  for probe in codegen_probe_row_io_d3q19 codegen_probe_window_io_d2q9; do
    body=$(awk -v p="$probe:" '$0 == p { on = 1 } on { print } on && /\.cfi_endproc/ { exit }' "$asm")
    test -n "$body"
    calls=$(grep -E '^\s+(call\w*|j[a-z]+)\s' <<<"$body" | grep -vE '^\s+j[a-z]+\s+(\.L|\*%|\*\.L)' |
      grep -vE 'panic|_fail' || true)
    printf '%26s  %s\n' "no out-of-line call" "$probe"
    if [ -n "$calls" ]; then
      printf 'out-of-line call in %s:\n%s\n' "$probe" "$calls"
      exit 1
    fi
  done
  rm -f "$asm"
  ;;
*) echo "skipped: the guard reads x86-64 assembly" ;;
esac

echo "== benchmark/ (own workspace: the crate every PR is scored by) builds and tests"
# The root `cargo build` never compiles benchmark/, so an API reshaping in
# the driver crates could break it unnoticed.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== benchmark run (all five workloads, every output checked; the only solver timing harness)"
# Exit code is a function of failed *operations* only (bitwise twins,
# checkpoint round trip, B/F within 10 % of Table 2, per-epoch ledger
# identity, every served checksum), never of a time, so it cannot flake on
# a noisy machine. Time is gated per PR by the paired parent-vs-change
# `benchmark ... run` protocol at the BENCHMARK.json bounds, not here.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --seconds 2

# "Exact means repeatable": the smoke / aa / sparse records hold counts,
# byte tallies and model values only, so a second run must write the same
# bytes. A clock that creeps back into one of these sections fails here.
repeats_byte_for_byte() {
  local section=$1
  test -s "BENCH_$section.json"
  cp "BENCH_$section.json" "$OBS_DIR/BENCH_$section.first.json"
  cargo run -p lbm-bench --release --bin reproduce -- "$section" >/dev/null
  cmp "$OBS_DIR/BENCH_$section.first.json" "BENCH_$section.json"
}

echo "== reproduce smoke (multi-device bitwise + exact halo ratios + observability)"
# Smoke fails hard on physics-monitor violations (NaN, mass drift > 1e-10)
# and on any deviation from Table 2's byte-exact traffic ideals. Each
# section asserts what its record holds before it writes it; the trace,
# metrics and event exports are checked by their exporters' tests
# (tests/observability.rs, obs's unit tests). So past the byte-for-byte
# repeats, a step here checks only that each file it writes is non-empty.
OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run -p lbm-bench --release --bin reproduce -- smoke \
  "--trace=$OBS_DIR/trace.json" "--metrics=$OBS_DIR/metrics.json"
test -s "$OBS_DIR/trace.json"
test -s "$OBS_DIR/metrics.json"
repeats_byte_for_byte smoke

echo "== aa (in-place single-lattice: bitwise vs two-lattice, byte-exact halved residency)"
# Runs AA-pattern ST and twist-MR against their two-lattice counterparts
# (bitwise FNV at even steps) and asserts resident bytes per node are
# exactly Q*8 / M*8 — half the two-lattice 2Q*8 / 2M*8 — published and
# read back through the metrics registry.
cargo run -p lbm-bench --release --bin reproduce -- aa
repeats_byte_for_byte aa

echo "== sparse (fluid-compacted ST + MR: porosity-swept footprints, exact B/F, bitwise vs dense)"
# Sweeps 25/50/75% rock on the same box and asserts the resident footprint
# equals the roofline sparse model on the *fluid* count (published and read
# back through the metrics registry) and shrinks strictly with it, sparse MR
# stays below sparse ST at every porosity, measured B/F matches the
# indirect-addressing model (180/132 D2Q9, 380/236 D3Q19), the sparse
# drivers stay FNV-bitwise equal to the dense ones, and the sharded sparse
# halo tally is byte-exact.
cargo run -p lbm-bench --release --bin reproduce -- sparse
repeats_byte_for_byte sparse

echo "== resilience (fault injection + checkpoint/rollback, bitwise-verified resume)"
# Injects NaN writes, a launch abort, and transient link failures; asserts
# every recovered run matches its fault-free FNV checksum and that retried
# halo exchanges leave byte-identical link tallies.
cargo run -p lbm-bench --release --bin reproduce -- resilience
test -s BENCH_resilience.json

echo "== serve smoke (multi-tenant fleet: hundreds of jobs, checksum-verified)"
# Replays a seeded arrival process through the lbm-serve scheduler and
# fails unless every job completes exactly once (zero lost/duplicated)
# with a checksum bitwise-equal to a solo run of the same spec.
cargo run -p lbm-bench --release --bin reproduce -- serve --jobs=400 --seed=7
test -s BENCH_serve.json

echo "== slo (observability plane: adaptive feedback controller vs static config)"
# Runs the same seeded workload through a static and an SLO-tuned fleet in
# interleaved waves; fails unless the controller beats the static config's
# pooled interactive p99, every job leaves a span naming its job and tenant, the
# event log replays to the scheduler's exact decision sequence, roofline
# gauges cover both device models and lie in (0, 100] %, and all checksums
# stay solo-bitwise.
cargo run -p lbm-bench --release --bin reproduce -- slo --jobs=400 --seed=7 \
  "--events=$OBS_DIR/events.json"
test -s BENCH_slo.json
test -s "$OBS_DIR/events.json"

echo "CI OK"
