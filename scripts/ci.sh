#!/usr/bin/env bash
# Offline CI gate: tier-1 verify (ROADMAP.md) plus lints and formatting.
# Run from anywhere inside the repository; no network access required.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> determinism lint gate: dgsched-analyze"
# Walks crates/**/*.rs and fails on any unannotated result-path
# determinism violation (unordered iteration, wall-clock reads, NaN-lossy
# float ordering, thread identity). Suppressions must carry a written
# reason; the lint's fixture battery runs inside `cargo test` above.
cargo run --release -q -p dgsched-analyze -- lint

echo "==> parallel-determinism gate: threads forced to 1, 2 and 4, and default"
# The test compares run_matrix JSON across pool widths in-process; running
# it under several environment baselines re-proves the equality whatever
# DGSCHED_THREADS/RAYON_NUM_THREADS resolve to, and fails on any diff.
# Width 2 is the daemon's and the benchmark's width, and the width at
# which the replication pool's batches are 2 wide.
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test parallel_determinism
DGSCHED_THREADS=2 cargo test -q -p dgsched-core --test parallel_determinism
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test parallel_determinism
cargo test -q -p dgsched-core --test parallel_determinism

echo "==> journal gate: kill/resume determinism at widths 1, 2 and 4"
# The journal contract: a sweep killed at any byte of the journal and
# resumed must serialise byte-identical ScenarioResult JSON, and a
# panicking replication is isolated instead of aborting the sweep. The
# test simulates kills by truncating the journal mid-record and re-proves
# the equality at explicit pool widths under both environment baselines.
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test journal_resume
DGSCHED_THREADS=2 cargo test -q -p dgsched-core --test journal_resume
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test journal_resume

echo "==> serve gate: daemon dedupe + kill/resume at widths 1 and 4"
# The sweep service contract: concurrent identical requests execute one
# sweep and serve byte-identical bytes, and a daemon SIGKILLed mid-sweep
# resumes from its journal to the same bytes after restart. The tests
# spawn the real dgsched binary and pin its width per-test; running the
# battery under both environment baselines re-proves it whatever the
# inherited DGSCHED_THREADS resolves to. The --check self-test is the
# deployable liveness probe (bind, sweep, verify a byte-identical hit).
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test serve
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test serve
cargo run --release -q -p dgsched-core --bin dgsched -- serve --check

echo "==> experiments gate: the experiments/ sweep requests at widths 1 and 4"
# Every file under experiments/ is a POST /sweep body: it must parse and
# validate, the figure files must equal the library's panels, each file
# must run end to end once shrunk, and `dgsched run` must print the
# bytes the daemon serves for it, journaled or not (tests/experiments.rs).
# A real file then runs at both pool widths and the stdouts must match.
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test experiments
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test experiments
exp_out="$(mktemp -d)"
for width in 1 4; do
  DGSCHED_THREADS=$width target/release/dgsched run experiments/e9-burstiness.json \
    --min-reps 2 --max-reps 2 > "$exp_out/e9.w$width.json" 2> /dev/null
done
cmp "$exp_out/e9.w1.json" "$exp_out/e9.w4.json"
rm -rf "$exp_out"

echo "==> codec gate: vendored serde/serde_json/rayon unit tests"
# vendor/ is not a workspace member, so `cargo test` above never runs the
# vendored crates' own tests: string decoding, the nesting cap that keeps
# a hostile request from overflowing a daemon thread's stack, errors, and
# the pool-width override's nesting and restore.
cargo test -q -p serde_json -p serde -p rayon

echo "==> lockcheck gate: lock-order witness on, pool/single-flight/journal/oracle batteries"
# The witness must (a) catch a reconstructed hold-and-wait cycle
# deterministically (parking_lot unit tests + tests/lockcheck.rs), and
# (b) stay result-passive: the golden-fingerprint test inside
# tests/lockcheck.rs pins run_matrix bytes to the seed value in BOTH
# feature configurations, and the determinism batteries re-run with the
# witness live at widths 1 and 4. Both journals take the same record-log
# lock, so the oracle battery runs under the witness too, and so does the
# replication pool's contract battery (tests/replication_pool.rs): the
# pool's own std lock is invisible to the witness, but every lock its
# jobs and journal hooks take is not.
cargo test -q -p parking_lot --features lockcheck
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --features lockcheck \
  --lib --test lockcheck --test parallel_determinism --test journal_resume --test serve \
  --test oracle_regret --test replication_pool
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --features lockcheck \
  --lib --test lockcheck --test parallel_determinism --test journal_resume --test serve \
  --test oracle_regret --test replication_pool

echo "==> oracle gate: replay exactness + regret battery at widths 1 and 4 (regret, resume and CLI also at 2)"
# The hindsight-oracle contract: trace replay reproduces the live run
# byte-identically (tests/trace_replay.rs), every search evaluation
# resumed from a snapshot equals a full replay of the same order
# (tests/oracle_resume.rs), and the regret battery — oracle ≤ best
# observed policy per cell, regret ≥ 0 across the full matrix, search
# byte-identical across pool widths and across resumed restarts
# (tests/oracle_regret.rs) — holds under both environment baselines.
# The oracle's captures, replays and restarts are replication-pool jobs,
# so a journaled `dgsched oracle` must then print the same bytes at
# widths 1, 2 and 4.
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test trace_replay --test oracle_resume --test oracle_regret
DGSCHED_THREADS=2 cargo test -q -p dgsched-core --test oracle_resume --test oracle_regret
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test trace_replay --test oracle_resume --test oracle_regret
oracle_out="$(mktemp -d)"
target/release/dgsched gen -n 12 -o "$oracle_out/s.json" 2> /dev/null
for width in 1 2 4; do
  DGSCHED_THREADS=$width target/release/dgsched oracle "$oracle_out/s.json" \
    --min-reps 2 --max-reps 2 --restarts 2 --iters 8 --oracle-reps 2 \
    --journal "$oracle_out/j.w$width.jsonl" > "$oracle_out/o.w$width.json" 2> /dev/null
done
cmp "$oracle_out/o.w1.json" "$oracle_out/o.w2.json"
cmp "$oracle_out/o.w1.json" "$oracle_out/o.w4.json"
rm -rf "$oracle_out"

echo "==> generator gate: sampler calibration + dgsched gen byte-identity at widths 1 and 4"
# The trace-realistic workload contract: the Pareto/Zipf/lognormal/MMPP
# samplers hit their analytic moments over random parameterisations
# (crates/workload/tests/dist_properties.rs), and `dgsched gen` emits
# byte-identical scenarios/workloads for a fixed seed at any pool width,
# rejects malformed distribution specs with usage errors, and its output
# runs through `dgsched run`/`oracle` unmodified (tests/gen.rs).
DGSCHED_THREADS=1 cargo test -q -p dgsched-workload
DGSCHED_THREADS=4 cargo test -q -p dgsched-workload
DGSCHED_THREADS=1 cargo test -q -p dgsched-core --test gen
DGSCHED_THREADS=4 cargo test -q -p dgsched-core --test gen

echo "==> telemetry gate: obs crate with and without the timing feature"
# The observer seam must stay passive: the obs crate and its profiling
# spans are built and tested in both configurations, and the passivity
# battery re-runs with DGSCHED_TRACE exercised inside the test itself.
cargo test -q -p dgsched-obs
cargo test -q -p dgsched-obs --features timing
cargo test -q -p dgsched-core --features timing --test observer_passivity

echo "==> benchmark gate: the benchmark package's unit tests and --check"
# crates/bench/benchmark is a package of its own, so `cargo test` above
# never builds it. Its unit tests pin its statistics, verdicts and metric
# tables; --check runs every workload at toy size, untraced and traced,
# through every result gate (~12 s), so a library change that breaks a
# gate the benchmark checks fails here instead of in a later comparison.
cargo test -q --offline --manifest-path crates/bench/benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path crates/bench/benchmark/Cargo.toml -- --check
# The benchmark builds without --locked, so a workspace dependency change
# can silently rewrite its tracked Cargo.lock: fail on any unstaged drift.
git diff --exit-code -- crates/bench/benchmark BENCHMARK.json

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints tests, examples and criterion benches too; nothing
# else in this script builds crates/bench/benches.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p dgsched-obs --features timing -- -D warnings"
cargo clippy -p dgsched-obs --features timing -- -D warnings

echo "==> cargo clippy -p dgsched-core --features lockcheck -- -D warnings"
cargo clippy -p dgsched-core --features lockcheck -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI gate passed."
