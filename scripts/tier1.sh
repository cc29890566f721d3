#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, a Release micro-benchmark
# smoke over the retrieval kernel, then a ThreadSanitizer pass over the
# concurrency-sensitive tests (the parallel eval harness, the thread
# pool, GRED's mutex-guarded annotation cache, the sharded embedding
# cache, the exact retrieval backend's per-thread accumulators, and the
# fault-tolerance layer, whose retry + degradation paths exercise the
# annotation cache and stage timers concurrently).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: release build + full ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j"$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j"$JOBS"

echo "== tier-1: static lint (clang-tidy, skipped when not installed) =="
"$ROOT/scripts/lint.sh"

echo "== tier-1: dvqlint smoke over examples/dvqs =="
# The committed clean corpus must lint clean; the broken corpus must be
# rejected (nonzero exit) with error-level diagnostics.
"$ROOT/build/tools/dvqlint" hr_1 "$ROOT/examples/dvqs/clean.dvq"
if "$ROOT/build/tools/dvqlint" hr_1 "$ROOT/examples/dvqs/broken.dvq" \
    >/dev/null 2>&1; then
  echo "tier-1: FAILED — dvqlint accepted examples/dvqs/broken.dvq" >&2
  exit 1
fi

echo "== tier-1: micro-benchmark smoke (Release retrieval kernel) =="
# Fast pass over the retrieval benchmarks: keeps the benchmark path and
# the bench-report tooling building and running. Includes the
# retrieval_sweep 1-probe smoke (2000-entry library, exact vs quantized
# vs IVF at one probe) so the recall@k frontier path runs on every gate.
# Writes to build/ so a smoke run never overwrites the committed
# BENCH_retrieval.json numbers (regenerate those with a plain
# `scripts/bench_report`).
"$ROOT/scripts/bench_report" --smoke "$ROOT/build/BENCH_retrieval_smoke.json"

echo "== tier-1: serve smoke (wire protocol end to end) =="
# Three requests through the real CLI serve loop: a valid translate, a
# malformed line and an over-budget request. Every line in must produce
# exactly one well-formed JSON response out, with the right verdicts,
# and the server must shut down cleanly on EOF.
SERVE_OUT="$ROOT/build/serve_smoke.ndjson"
printf '%s\n' \
  '{"id":1,"nlq":"What are cinema_name and open year in cinemas? Plot a bar chart.","db":"library_1"}' \
  '{this is not json}' \
  '{"id":3,"nlq":"What are cinema_name and open year in cinemas? Plot a bar chart.","db":"library_1","budget_rows":1}' \
  | GRED_BENCH_TRAIN_SIZE=250 GRED_BENCH_TEST_SIZE=40 GRED_SERVE_TIMINGS=0 \
    "$ROOT/build/tools/gredvis" serve >"$SERVE_OUT"
SERVE_OUT="$SERVE_OUT" python3 - <<'PY'
import json, os, sys

with open(os.environ["SERVE_OUT"]) as f:
    lines = [line for line in f.read().splitlines() if line.strip()]
if len(lines) != 3:
    sys.exit(f"serve smoke: expected 3 responses, got {len(lines)}")
replies = {}
for line in lines:
    reply = json.loads(line)  # every response must be well-formed JSON
    replies[reply.get("id")] = reply
ok = replies.get(1, {})
if not ok.get("ok") or ok.get("rows", 0) < 1 or "dvq" not in ok:
    sys.exit(f"serve smoke: bad translate response: {ok}")
bad = replies.get(None, {})
if bad.get("ok") is not False or bad.get("code") != "ParseError":
    sys.exit(f"serve smoke: bad malformed-line response: {bad}")
tripped = replies.get(3, {})
if tripped.get("ok") is not False or not tripped.get("resource_exhausted"):
    sys.exit(f"serve smoke: bad over-budget response: {tripped}")
print("serve smoke: 3/3 responses well-formed, clean shutdown")
PY

echo "== tier-1: serve-sweep smoke (replay identity + admission control) =="
# One-worker trace replay through scripts/bench_report --serve: the
# binary itself asserts byte-identity with the serial transcript and
# exact response accounting under the overload burst. Writes to build/
# so a smoke run never overwrites the committed BENCH_serve.json.
GRED_SERVE_THREADS=1 GRED_SERVE_REQUESTS=12 \
  "$ROOT/scripts/bench_report" --serve --smoke \
  "$ROOT/build/BENCH_serve_smoke.json"

echo "== tier-1: chaos smoke (overload + faults + reload invariants) =="
# The deterministic chaos harness at smoke scale: breaker-vs-retry
# economics on a dead backend, an all-knobs-on schedule (bursts, a
# wedged worker, injected faults, rate limiting, brownout, a mid-run
# reload) with exactly-once + counter-balance asserted by the binary,
# and the knobs-off replay-identity check. Merges into the smoke serve
# report so the committed BENCH_serve.json is never touched by the gate.
"$ROOT/scripts/bench_report" --chaos --smoke \
  "$ROOT/build/BENCH_serve_smoke.json"

echo "== tier-1: analysis smoke (repair gate + cost calibration) =="
# The repair/cost sweep at smoke scale through scripts/bench_report
# --analysis: the binary itself asserts that the repair gate strictly
# reduces lint rejections without losing accuracy at every corruption
# rate, and that the cost estimator never under-prices a corpus query
# (zero false rejections at max budget, zero missed runtime trips).
# Writes to build/ so a smoke run never overwrites the committed
# BENCH_analysis.json numbers.
"$ROOT/scripts/bench_report" --analysis --smoke \
  "$ROOT/build/BENCH_analysis_smoke.json"

echo "== tier-1: exec-sweep smoke (columnar vs row engine identity) =="
# Both executor engines over a small synthetic table through
# scripts/bench_report --exec: the binary itself asserts bit-identical
# results with guards armed. Writes to build/ so a smoke run never
# overwrites the committed BENCH_exec.json numbers.
"$ROOT/scripts/bench_report" --exec --smoke \
  "$ROOT/build/BENCH_exec_smoke.json"

echo "== tier-1: end-to-end benchmark smoke (both workloads, tiny suite) =="
# The serving benchmark at a 300-example library for one second per run,
# untraced and traced: each run must pass its correctness gate and print
# exactly the metrics BENCHMARK.json names. Builds its own Release tree
# under .bench_build/ (see e2e_bench/run.py).
(cd "$ROOT" && python3 e2e_bench/smoke_test.py)

echo "== tier-1: ThreadSanitizer pass (parallel harness + fault layer) =="
if ! cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DGRED_SANITIZE=thread \
  -DGRED_BUILD_BENCHMARKS=OFF \
  -DGRED_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo; then
  echo "tier-1: FAILED — build-tsan configure failed" >&2
  exit 1
fi
cmake --build "$ROOT/build-tsan" -j"$JOBS" \
  --target thread_pool_test eval_test llm_test gred_test \
           retrieval_equivalence_test serve_test circuit_breaker_test \
           exec_reference_test kernel_dispatch_test
# TSAN_OPTIONS makes any detected race fail the run loudly.
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/thread_pool_test"
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/eval_test" \
  --gtest_filter='ParallelHarness.*'
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/llm_test" \
  --gtest_filter='Resilient.*'
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/gred_test" \
  --gtest_filter='*Degraded*:*RetryRecovers*:*GeneratorFailure*'
TSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-tsan/tests/retrieval_equivalence_test" \
  --gtest_filter='CachingEmbedder.*:RetrievalIndexFacade.*'
# The SIMD dot kernel resolves its dispatch target once per process
# (magic static + env override); the hammer races many threads through
# Dot() and must stay data-race-free and bit-identical.
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/kernel_dispatch_test"
# The serving layer is the repo's most concurrent surface: a bounded
# MPMC queue, a worker pool sharing one Gred, per-session rate limiting,
# epoch-swapping hot reload and per-stream response serialization — the
# whole test binary runs under TSan (including the exactly-once queue
# hammer).
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/serve_test"
# The circuit breaker's state machine is lock-arbitrated but its inner
# call runs outside the lock; the contention hammer must account every
# call with no race.
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/circuit_breaker_test"
# Engine differential (row vs columnar) under TSan: the eval harness
# runs executions on worker threads, so the executor — including the
# columnar engine's shared-scan borrowing — must stay data-race-free.
TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/exec_reference_test" \
  --gtest_filter='*EngineDifferential*'

echo "== tier-1: ASan+UBSan pass (fuzz + resource-guard tests) =="
# The fuzz harness and the guard layer see adversarial inputs (oversized,
# NUL-embedded, deeply nested) and budget-aborted executions; run them
# under AddressSanitizer + UndefinedBehaviorSanitizer so an out-of-bounds
# read or a mid-operator leak fails loudly instead of passing silently.
if ! cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DGRED_SANITIZE=address,undefined \
  -DGRED_BUILD_BENCHMARKS=OFF \
  -DGRED_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo; then
  echo "tier-1: FAILED — build-asan configure failed" >&2
  exit 1
fi
cmake --build "$ROOT/build-asan" -j"$JOBS" \
  --target fuzz_test dvq_test resource_guard_test metamorphic_test \
           analysis_test repair_test json_test exec_test \
           exec_reference_test retrieval_equivalence_test \
           kernel_dispatch_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/fuzz_test"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/dvq_test"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/resource_guard_test"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/metamorphic_test"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/analysis_test"
# The repairer rewrites DVQ ASTs in place (clause erasure, in-loop
# retargeting) and the cost estimator walks borrowed column statistics —
# both are pointer-heavy AST surgery that must hold up under ASan.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/repair_test"
# The JSON parser is the wire protocol's first line of defense: its
# regression suite (depth cap, strtod end-pointer, surrogate pairs)
# runs under ASan+UBSan so a parser overread fails loudly.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/json_test"
# The columnar engine works over borrowed column pointers and selection
# index vectors — exactly the pointer arithmetic ASan exists to police.
# The differential suites replay the whole eval corpus plus 1000
# randomized queries through both engines here.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/exec_test"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/exec_reference_test"
# ANN differential smoke: the int8 quantized scan (aligned code buffers,
# pointer-stride arithmetic) and the IVF probe path against the exact
# store, plus the RetrievalIndex facade and the posting-list walk (minus
# its full-corpus replay), under ASan+UBSan — an overread in a SIMD tail,
# a stride miscalculation or a stray accumulator index fails here, not
# in prod.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/retrieval_equivalence_test" \
  --gtest_filter='QuantizedEquivalence.*:IvfEquivalence.*:RetrievalIndexFacade.*:PostingListEquivalence.*-PostingListEquivalence.DefaultSuite*'
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-asan/tests/kernel_dispatch_test"

echo "== tier-1: OK =="
