# CLI smoke test: run `zolcsim sweep` on one kernel and validate the CSV
# schema against the checked-in golden header, run one checked-in scenario
# suite through `sweep --from-file`, then `run --mode` with tenants on an
# ISS tier (ok) and on the pipeline (bad-config). Invoked by CTest as
#   cmake -DCLI=<zolcsim> -DGOLDEN=<sweep_header.csv> -DOUT=<scratch.csv>
#        -DSUITE=<scenarios/fig2_cycles.json> -P cli_smoke.cmake
# Guards the CLI wiring end-to-end (arg parsing -> sweep engine -> CSV
# emitter) and pins the paper-default CSV schema.
if(NOT CLI OR NOT GOLDEN OR NOT OUT OR NOT SUITE)
  message(FATAL_ERROR
      "cli_smoke.cmake needs -DCLI=, -DGOLDEN=, -DOUT=, -DSUITE=")
endif()

execute_process(
  COMMAND ${CLI} sweep --kernels=dotprod --machines=XRdefault,ZOLClite
          --threads=1 --out=${OUT}
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "zolcsim sweep failed (${rc}): ${stderr_text}")
endif()

file(STRINGS ${OUT} produced LIMIT_COUNT 1)
file(STRINGS ${GOLDEN} expected LIMIT_COUNT 1)
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR
      "CSV header drifted from the golden schema\n  produced: ${produced}\n"
      "  expected: ${expected}")
endif()

# The sweep must have produced one row per (kernel, machine) cell.
file(STRINGS ${OUT} all_lines)
list(LENGTH all_lines line_count)
if(NOT line_count EQUAL 3)
  message(FATAL_ERROR "expected header + 2 cells, got ${line_count} lines")
endif()

# Suite mode: the checked-in fig2 scenario must run clean, which also
# re-verifies its golden CSV digest (the runner fails on any mismatch).
execute_process(
  COMMAND ${CLI} sweep --from-file=${SUITE} --threads=1 --out=${OUT}.suite
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "zolcsim sweep --from-file failed (${rc}): ${stderr_text}")
endif()
file(STRINGS ${OUT}.suite suite_header LIMIT_COUNT 1)
if(NOT suite_header STREQUAL expected)
  message(FATAL_ERROR
      "suite CSV header drifted from the golden schema\n"
      "  produced: ${suite_header}\n  expected: ${expected}")
endif()

# `run` takes the request codec's --mode grammar. Tenants on the ISS tiers
# run; on the pipeline they are flow::run's bad-config error (exit 1), the
# same error the serve daemon replies with.
execute_process(
  COMMAND ${CLI} run matmul --mode=iss-fast --tenants=2
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "zolcsim run --mode=iss-fast --tenants=2 failed (${rc}): ${stderr_text}")
endif()
execute_process(
  COMMAND ${CLI} run matmul --mode=pipeline --tenants=2
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 1 OR NOT stderr_text MATCHES "error\\[bad-config\\]")
  message(FATAL_ERROR
      "zolcsim run --mode=pipeline --tenants=2 must exit 1 with "
      "error[bad-config], got ${rc}: ${stderr_text}")
endif()
