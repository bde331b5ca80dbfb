#!/usr/bin/env bash
# Correctness gate for RASED (see DESIGN.md "Correctness tooling").
#
# Runs, in order:
#   1. clang-format --dry-run      (skipped if clang-format is absent)
#   2. clang-tidy over src/        (skipped if clang-tidy is absent)
#   3. rased-lint over src/tests/bench/tools (project-specific rules,
#      DESIGN.md section 9; zero unsuppressed findings required)
#   4. shellcheck over the repo's shell scripts (skipped if absent)
#   5. plain build + full ctest
#   6. benchmark build: configure and build dashbench/ (which compiles
#      ../src itself) and run its helper tests, so a src/ API change that
#      breaks the benchmark fails here rather than at a benchmark run
#   7-11. the quick benches, in one table-driven loop: concurrent
#      queries, query hot path, ingest vs query, cube compression and
#      profiler smoke gates (each bench's gate and trajectory file are
#      listed at the loop), then a smoke run of bench_micro's
#      BM_FoldEncoded benchmarks
#  12. metrics smoke: boots a tiny synthetic instance, asserts the
#      Prometheus exposition (rased metrics + live GET /metrics) covers
#      every serving-path family and /api/trace returns spans, checks
#      /healthz, /readyz (incl. the build object), /api/selfstats,
#      /api/profile, /api/trace?worst=1, and the `rased profile`
#      renderer, gates the selfstats sampler (ring within byte budget,
#      <= 1% duty cycle), and writes BENCH_metrics_smoke.json +
#      BENCH_selfstats.json trajectories
#  13. ASan+UBSan build + full ctest (deadlock detector enabled)
#  14. TSan build + concurrency-focused ctest (dashboard/cache/collect/
#      index/warehouse/hotpath/codec/kernel/observability/profiler
#      suites)
#
# Exit code 0 means every stage that could run passed. Stages whose tool
# is missing are reported as SKIP, not failure, so the script works both
# in the clang-equipped CI image and in gcc-only dev containers.
#
# Usage: tools/check.sh [build-dir-prefix]   (default: build-check)

set -u -o pipefail

cd "$(dirname "$0")/.." || exit 1
PREFIX="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILURES=0

note()  { printf '\n==== %s ====\n' "$*"; }
pass()  { printf 'PASS: %s\n' "$*"; }
skip()  { printf 'SKIP: %s\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }

# ---------------------------------------------------------------- format --
note "clang-format (dry run)"
if command -v clang-format >/dev/null 2>&1; then
  if git ls-files '*.h' '*.cc' | xargs -r clang-format --dry-run --Werror; then
    pass "clang-format"
  else
    fail "clang-format found formatting violations"
  fi
else
  skip "clang-format not installed"
fi

# ----------------------------------------------------------------- tidy ---
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_DIR="${PREFIX}-tidy"
  if cmake -B "${TIDY_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        >/dev/null \
      && git ls-files 'src/*.cc' \
         | xargs -r -P "${JOBS}" -n 8 clang-tidy -p "${TIDY_DIR}" --quiet; then
    pass "clang-tidy"
  else
    fail "clang-tidy reported errors"
  fi
else
  skip "clang-tidy not installed"
fi

# ----------------------------------------------------------- rased-lint ---
# The project's own static analysis (tools/lint/, rules in DESIGN.md
# section 9). Needs no compiler beyond the one cmake already uses, so it
# never skips: a missing binary is a failure, not a SKIP.
note "rased-lint"
LINT_DIR="${PREFIX}-lint"
if cmake -B "${LINT_DIR}" -S . >/dev/null \
    && cmake --build "${LINT_DIR}" -j "${JOBS}" \
         --target rased_lint_bin >/dev/null; then
  if "${LINT_DIR}/tools/lint/rased-lint" --root .; then
    pass "rased-lint (zero unsuppressed findings)"
  else
    fail "rased-lint found violations"
  fi
else
  fail "rased-lint failed to build"
fi

# ------------------------------------------------------------ shellcheck --
note "shellcheck"
if command -v shellcheck >/dev/null 2>&1; then
  if git ls-files '*.sh' | xargs -r shellcheck -S warning; then
    pass "shellcheck"
  else
    fail "shellcheck reported issues"
  fi
else
  skip "shellcheck not installed"
fi

# ---------------------------------------------------------- build + test --
run_matrix_entry() {
  local name="$1" dir="$2" test_args="$3"
  shift 3
  note "${name}: configure + build + ctest"
  if ! cmake -B "${dir}" -S . "$@" >/dev/null; then
    fail "${name}: cmake configure"
    return
  fi
  if ! cmake --build "${dir}" -j "${JOBS}" >/dev/null; then
    fail "${name}: build"
    return
  fi
  # shellcheck disable=SC2086  # test_args is an intentional word list
  if (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${test_args}); then
    pass "${name}"
  else
    fail "${name}: ctest"
  fi
}

run_matrix_entry "plain" "${PREFIX}-plain" "" \
  -DRASED_WERROR=ON

# ------------------------------------------------------- benchmark build --
# The repository benchmark (BENCHMARK.json, dashbench/) is a standalone
# CMake package that compiles ../src; build it and run its helper tests
# so a src/ change that breaks the benchmark fails here. Never skips.
note "dashbench build + helper tests"
DASHBENCH_DIR="${PREFIX}-dashbench"
if cmake -S dashbench -B "${DASHBENCH_DIR}" >/dev/null \
    && cmake --build "${DASHBENCH_DIR}" -j "${JOBS}" \
         --target dashbench dashbench_helpers_test >/dev/null \
    && "${DASHBENCH_DIR}/dashbench_helpers_test" >/dev/null; then
  pass "dashbench build + helper tests"
else
  fail "dashbench build or helper tests"
fi

# ---------------------------------------------------------- quick benches --
# The quick modes of the gating benches, one table row each. Every bench
# asserts its own gate and exits non-zero when it fails:
#   bench_concurrent_queries  per-query accounting determinism, >= 4x
#                             8-thread speedup over the global-lock baseline
#   bench_query_hotpath       batched rows and transfers equal the serial
#                             reference, read_ops < page_reads, cold
#                             device time >= 2x better
#   bench_ingest_vs_query     MVCC publication: reader makespan within 10%
#                             of the no-ingest baseline while 35 days
#                             publish, ingest within 25% of exclusive,
#                             >= 2 observed epochs
#   bench_cube_compression    bit-identical rows dense/adaptive, batched/
#                             serial and scalar/AVX2, >= 3x fewer
#                             bytes_read and page_reads, warm makespan
#                             within 10% of dense
#   bench_profiler            <= 2% process-CPU overhead at 99 Hz, < 1%
#                             sample drop rate, bit-identical rows on/off
# Columns: binary, index directory under the plain build's bench/, the
# "bench" tag of the JSON line kept as the BENCH_<tag>.json trajectory at
# the repo root ("-" keeps none), and what a missing binary is. The last
# three are load-bearing contracts (publication, storage encodings,
# always-on profiling), so a missing binary fails rather than skips.
QUICK_BENCHES=(
  "bench_concurrent_queries concurrent_bench_data  -                skip"
  "bench_query_hotpath      hotpath_bench_data     query_hotpath    skip"
  "bench_ingest_vs_query    ingest_bench_data      mvcc_ingest      fail"
  "bench_cube_compression   compression_bench_data cube_compression fail"
  "bench_profiler           profiler_bench_data    profiler         fail"
)
for row in "${QUICK_BENCHES[@]}"; do
  read -r bench data tag missing <<< "${row}"
  note "${bench} --quick"
  bin="${PREFIX}-plain/bench/${bench}"
  if [ ! -x "${bin}" ]; then
    "${missing}" "${bench} not built (plain build failed?)"
    continue
  fi
  if ! out="$("${bin}" --quick "bench_dir=${PREFIX}-plain/bench/${data}")"; then
    fail "${bench} --quick"
  elif [ "${tag}" = "-" ]; then
    pass "${bench} --quick"
  else
    printf '%s\n' "${out}" | grep "\"bench\":\"${tag}\"" > "BENCH_${tag}.json"
    pass "${bench} --quick (trajectory in BENCH_${tag}.json)"
  fi
done

# bench_micro has no gate of its own; running its encoded-fold and
# warehouse benchmarks with a tiny minimum time keeps the binary building
# and running.
note "bench_micro FoldEncoded|Warehouse (smoke)"
bin="${PREFIX}-plain/bench/bench_micro"
if [ ! -x "${bin}" ]; then
  skip "bench_micro not built (plain build failed?)"
elif "${bin}" --benchmark_filter='FoldEncoded|Warehouse' \
    --benchmark_min_time=0.01 >/dev/null; then
  pass "bench_micro FoldEncoded|Warehouse"
else
  fail "bench_micro FoldEncoded|Warehouse"
fi

# ----------------------------------------------------------- metrics smoke --
# End-to-end observability gate: build a tiny synthetic instance with the
# CLI, then require that (a) `rased metrics probe=1` exposes every
# serving-path metric family, (b) the live dashboard serves the same
# exposition plus the HTTP families on GET /metrics, and (c) GET
# /api/trace returns per-span traces with their epoch and alloc_ops. A
# "metrics_snapshot" JSON line from the probe run becomes the
# BENCH_metrics_smoke.json trajectory — its own file, so the
# query-hotpath trajectory stays a pure bench series.
note "metrics smoke (rased metrics + GET /metrics + GET /api/trace)"
RASED_BIN="${PREFIX}-plain/tools/rased"
if [ -x "${RASED_BIN}" ]; then
  SMOKE_DIR="${PREFIX}-plain/metrics_smoke"
  METRICS_TXT="${SMOKE_DIR}/metrics.txt"
  rm -rf "${SMOKE_DIR}"
  mkdir -p "${SMOKE_DIR}"
  SMOKE_OK=1
  { "${RASED_BIN}" init "dir=${SMOKE_DIR}/instance" schema=bench \
      && "${RASED_BIN}" synth "publish=${SMOKE_DIR}/feed" \
           from=2021-01-01 to=2021-01-07 schema=bench seed=7 rate=20 \
      && "${RASED_BIN}" sync "dir=${SMOKE_DIR}/instance" \
           "feed=${SMOKE_DIR}/feed" \
      && "${RASED_BIN}" metrics "dir=${SMOKE_DIR}/instance" probe=1 \
           > "${METRICS_TXT}"; } >/dev/null 2>&1 || SMOKE_OK=0
  if [ "${SMOKE_OK}" -eq 1 ]; then
    # One family per instrumented subsystem (DESIGN.md section 8).
    for family in \
        rased_pager_read_ops_total \
        rased_pager_device_micros_total \
        rased_cache_hits_total \
        rased_cache_misses_total \
        rased_index_cube_reads_total \
        rased_index_cubes \
        rased_queries_total \
        rased_query_device_micros_bucket \
        rased_traces_recorded_total; do
      if ! grep -q "^${family}" "${METRICS_TXT}"; then
        fail "metrics smoke: family ${family} missing from rased metrics"
        SMOKE_OK=0
      fi
    done
  else
    fail "metrics smoke: CLI pipeline (init/synth/sync/metrics) failed"
  fi
  if [ "${SMOKE_OK}" -eq 1 ]; then
    awk '$1 == "rased_queries_total" { q = $2 }
         $1 == "rased_cache_hits_total" { h = $2 }
         $1 == "rased_cache_misses_total" { m = $2 }
         $1 == "rased_index_cube_reads_total" { c = $2 }
         $1 == "rased_pager_read_ops_total{file=\"index\"}" { r = $2 }
         END { printf "{\"bench\":\"metrics_snapshot\"," \
                      "\"queries_total\":%d,\"cache_hits\":%d," \
                      "\"cache_misses\":%d,\"cube_reads\":%d," \
                      "\"index_read_ops\":%d}\n", q, h, m, c, r }' \
      "${METRICS_TXT}" > BENCH_metrics_smoke.json
    pass "metrics smoke: rased metrics (snapshot in BENCH_metrics_smoke.json)"
  fi
  if [ "${SMOKE_OK}" -eq 1 ] && command -v curl >/dev/null 2>&1; then
    SERVE_LOG="${SMOKE_DIR}/serve.log"
    "${RASED_BIN}" serve "dir=${SMOKE_DIR}/instance" port=0 \
      serve_seconds=60 > "${SERVE_LOG}" 2>&1 &
    SERVE_PID=$!
    PORT=""
    for _ in $(seq 1 50); do
      PORT="$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\)/.*#\1#p' \
        "${SERVE_LOG}" 2>/dev/null | head -n 1)"
      [ -n "${PORT}" ] && break
      sleep 0.2
    done
    HTTP_OK=1
    HTTP_METRICS=""
    if [ -z "${PORT}" ]; then
      fail "metrics smoke: dashboard never reported its port"
      HTTP_OK=0
    else
      curl -fsS "http://127.0.0.1:${PORT}/api/query?group=country" \
        >/dev/null || HTTP_OK=0
      HTTP_METRICS="$(curl -fsS "http://127.0.0.1:${PORT}/metrics")" \
        || HTTP_OK=0
      for family in rased_http_requests_total rased_http_responses_total \
          rased_http_request_micros_bucket \
          rased_http_malformed_requests_total; do
        if ! printf '%s\n' "${HTTP_METRICS}" | grep -q "^${family}"; then
          fail "metrics smoke: family ${family} missing from GET /metrics"
          HTTP_OK=0
        fi
      done
      TRACE_JSON="$(curl -fsS "http://127.0.0.1:${PORT}/api/trace")"
      for key in spans epoch alloc_ops; do
        if ! printf '%s\n' "${TRACE_JSON}" | grep -q "\"${key}\""; then
          fail "metrics smoke: /api/trace lacks \"${key}\""
          HTTP_OK=0
        fi
      done
      # Self-monitoring surface: health endpoints, the selfstats time
      # series, and the SLO/selfstats families in the live exposition.
      curl -fsS "http://127.0.0.1:${PORT}/healthz" | grep -q '^ok$' \
        || { fail "metrics smoke: /healthz not ok"; HTTP_OK=0; }
      curl -fsS "http://127.0.0.1:${PORT}/readyz" \
        | grep -q '"ready":true' \
        || { fail "metrics smoke: /readyz not ready"; HTTP_OK=0; }
      curl -fsS "http://127.0.0.1:${PORT}/api/selfstats" \
        | grep -q '"series"' \
        || { fail "metrics smoke: /api/selfstats has no series"; HTTP_OK=0; }
      for family in rased_slo_status rased_slo_burn_rate \
          rased_selfstats_samples_total rased_selfstats_resident_bytes \
          rased_build_info rased_profiler_samples_total \
          rased_profiler_threads_registered rased_query_alloc_ops_total \
          rased_query_alloc_bytes_bucket; do
        if ! printf '%s\n' "${HTTP_METRICS}" | grep -q "^${family}"; then
          fail "metrics smoke: family ${family} missing from GET /metrics"
          HTTP_OK=0
        fi
      done
      # Profiler + attribution surface: /readyz carries the build object,
      # /api/profile serves an on-demand folded capture (an idle server
      # may legitimately return zero stacks — CPU-time timers only fire
      # under load — so the gate is on the endpoints, not the counts),
      # /api/trace?worst=1 serves per-bucket worst-latency exemplars, and
      # the CLI renderer round-trips a live capture end to end.
      curl -fsS "http://127.0.0.1:${PORT}/readyz" \
        | grep -q '"build"' \
        || { fail "metrics smoke: /readyz has no build object"; HTTP_OK=0; }
      curl -fsS \
        "http://127.0.0.1:${PORT}/api/profile?seconds=1&format=folded" \
        >/dev/null \
        || { fail "metrics smoke: /api/profile folded fetch failed"; \
             HTTP_OK=0; }
      curl -fsS \
        "http://127.0.0.1:${PORT}/api/profile?window=1&format=json" \
        | grep -q '"samples"' \
        || { fail "metrics smoke: /api/profile json has no samples"; \
             HTTP_OK=0; }
      curl -fsS "http://127.0.0.1:${PORT}/api/trace?worst=1" \
        | grep -q '"worst"' \
        || { fail "metrics smoke: /api/trace?worst=1 has no worst"; \
             HTTP_OK=0; }
      if "${RASED_BIN}" profile "port=${PORT}" seconds=1 >/dev/null; then
        pass "metrics smoke: rased profile round-trips /api/profile"
      else
        fail "metrics smoke: rased profile failed"
        HTTP_OK=0
      fi
      # Sampler budget gates from the TSV meta line: the ring must honor
      # its byte budget, and the average sample cost must stay under 1%
      # of the sampling interval (duty-cycle proxy for "overhead <= 1%").
      SELFSTATS_TSV="${SMOKE_DIR}/selfstats.tsv"
      if curl -fsS "http://127.0.0.1:${PORT}/api/selfstats?format=tsv" \
          > "${SELFSTATS_TSV}" \
          && head -n 1 "${SELFSTATS_TSV}" | grep -q '^#selfstats '; then
        if head -n 1 "${SELFSTATS_TSV}" | awk '{
              for (i = 2; i <= NF; ++i) {
                split($i, kv, "="); meta[kv[1]] = kv[2]
              }
              ok = 1
              if (meta["resident_bytes"] > meta["byte_budget"]) ok = 0
              if (meta["samples_total"] > 0 &&
                  100 * meta["cost_micros_total"] / meta["samples_total"] \
                    > meta["interval_micros"]) ok = 0
              printf "{\"bench\":\"selfstats\",\"samples_total\":%d," \
                     "\"samples_retained\":%d,\"resident_bytes\":%d," \
                     "\"byte_budget\":%d,\"cost_micros_total\":%d," \
                     "\"interval_micros\":%d}\n", meta["samples_total"], \
                     meta["samples"], meta["resident_bytes"], \
                     meta["byte_budget"], meta["cost_micros_total"], \
                     meta["interval_micros"] > "BENCH_selfstats.json"
              exit ok ? 0 : 1
            }'; then
          pass "metrics smoke: selfstats budget gates (BENCH_selfstats.json)"
        else
          fail "metrics smoke: selfstats over byte budget or >1% duty cycle"
          HTTP_OK=0
        fi
      else
        fail "metrics smoke: /api/selfstats?format=tsv fetch failed"
        HTTP_OK=0
      fi
    fi
    kill "${SERVE_PID}" 2>/dev/null
    wait "${SERVE_PID}" 2>/dev/null
    if [ "${HTTP_OK}" -eq 1 ]; then
      pass "metrics smoke: GET /metrics + health + selfstats + /api/trace"
    else
      fail "metrics smoke: live GET /metrics + health + selfstats check"
    fi
  elif [ "${SMOKE_OK}" -eq 1 ]; then
    skip "curl not installed (live /metrics check)"
  fi
else
  skip "rased CLI not built (plain build failed?)"
fi

run_matrix_entry "asan+ubsan" "${PREFIX}-asan" "" \
  "-DRASED_SANITIZE=address;undefined"

# TSan: the concurrency-sensitive suites. These are the classes that got
# locks/annotations in the correctness-tooling pass, plus the
# observability suites (registry hammer, trace ring, /metrics endpoint);
# a race anywhere in them must surface here. The selection is the ctest
# label `tsan` (tests/CMakeLists.txt), which CI's TSan step runs too.
run_matrix_entry "tsan" "${PREFIX}-tsan" \
  "-L tsan" \
  "-DRASED_SANITIZE=thread"

# ----------------------------------------------------------------- gate ---
note "summary"
if [ "${FAILURES}" -ne 0 ]; then
  printf '%d stage(s) failed\n' "${FAILURES}"
  exit 1
fi
printf 'all runnable stages passed\n'
