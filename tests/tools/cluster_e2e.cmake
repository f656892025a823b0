# End-to-end sharded serving through the CLI, run by ctest as `cluster_e2e`.
#
# `hdcgen serve --replicas N` must be invisible in the output: for every
# {--shard rows|classes} x {--backend loopback|fork} x {replicas 2, 3, 7}
# the prediction stream over the committed test rows is byte-compared
# against the single-process baseline (which itself matches the committed
# golden).  Also asserts the operator summary names the cluster shape, the
# fork banner lists worker pids, --latency measures real per-row latency,
# and bad flag values (a replica count above the bound among them) are
# refused.
#
# Inputs: -DHDCGEN=<tool path> -DWORK_DIR=<scratch dir>
#         -DDATA_DIR=<tests/serve/data>

if(NOT DEFINED HDCGEN OR NOT DEFINED WORK_DIR OR NOT DEFINED DATA_DIR)
  message(FATAL_ERROR
    "cluster_e2e: pass -DHDCGEN=... -DWORK_DIR=... and -DDATA_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ROWS "${DATA_DIR}/beijing_rows.csv")
set(GOLDEN "${DATA_DIR}/beijing_predictions.golden")
set(SNAPSHOT "${WORK_DIR}/beijing.hdcs")

execute_process(
  COMMAND "${HDCGEN}" snap --pipeline beijing --out "${SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "hdcgen snap: exit ${code}\n${out}${err}")
endif()

# --- single-process baseline, itself pinned to the committed golden.
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --batch 8
  INPUT_FILE "${ROWS}"
  OUTPUT_FILE "${WORK_DIR}/baseline.txt"
  ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "baseline serve: exit ${code}\n${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/baseline.txt" "${GOLDEN}"
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "baseline diverges from the committed golden")
endif()

# --- the replica matrix must be byte-identical to the baseline.
foreach(backend loopback fork)
  foreach(shard rows classes)
    foreach(replicas 2 3 7)
      set(label "${backend}-${shard}-r${replicas}")
      execute_process(
        COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --batch 8
          --replicas ${replicas} --shard ${shard} --backend ${backend}
        INPUT_FILE "${ROWS}"
        OUTPUT_FILE "${WORK_DIR}/${label}.txt"
        ERROR_VARIABLE err RESULT_VARIABLE code)
      if(NOT code EQUAL 0)
        message(FATAL_ERROR "serve ${label}: exit ${code}\n${err}")
      endif()
      if(NOT err MATCHES "${replicas} replicas \\(${backend}, shard=${shard}\\)")
        message(FATAL_ERROR
          "serve ${label}: summary lacks the cluster shape\n${err}")
      endif()
      if(backend STREQUAL "fork" AND NOT err MATCHES "worker pids:")
        message(FATAL_ERROR
          "serve ${label}: fork banner lacks worker pids\n${err}")
      endif()
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/${label}.txt" "${WORK_DIR}/baseline.txt"
        RESULT_VARIABLE code)
      if(NOT code EQUAL 0)
        message(FATAL_ERROR
          "cluster_e2e: ${label} predictions differ from the baseline")
      endif()
    endforeach()
  endforeach()
endforeach()

# --- text pipeline sharding: raw samples fan out the same way, and both
# the plain predictions and the confidence head stay byte-identical to
# the committed single-process goldens.
set(TEXT_SNAPSHOT "${WORK_DIR}/text.hdcs")
set(TEXT_ROWS "${DATA_DIR}/text_rows.txt")
execute_process(
  COMMAND "${HDCGEN}" snap --pipeline text --out "${TEXT_SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "hdcgen snap --pipeline text: exit ${code}\n${out}${err}")
endif()
foreach(backend loopback fork)
  foreach(shard rows classes)
    set(label "text-${backend}-${shard}")
    execute_process(
      COMMAND "${HDCGEN}" serve "${TEXT_SNAPSHOT}" --input text --batch 5
        --replicas 2 --shard ${shard} --backend ${backend}
      INPUT_FILE "${TEXT_ROWS}"
      OUTPUT_FILE "${WORK_DIR}/${label}.txt"
      ERROR_VARIABLE err RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "serve ${label}: exit ${code}\n${err}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${label}.txt" "${DATA_DIR}/text_predictions.golden"
      RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
        "cluster_e2e: ${label} predictions differ from the golden")
    endif()
    execute_process(
      COMMAND "${HDCGEN}" serve "${TEXT_SNAPSHOT}" --input text --head
        --batch 5 --replicas 2 --shard ${shard} --backend ${backend}
      INPUT_FILE "${TEXT_ROWS}"
      OUTPUT_FILE "${WORK_DIR}/${label}-head.txt"
      ERROR_VARIABLE err RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "serve ${label} --head: exit ${code}\n${err}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${label}-head.txt" "${DATA_DIR}/text_confidence.golden"
      RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
        "cluster_e2e: ${label} confidence head differs from the golden")
    endif()
  endforeach()
endforeach()

# --- the regressor band head also survives sharding bit-exactly, including
# a replica count above the label-grid slice width.
foreach(replicas 2 7)
  set(label "bands-r${replicas}")
  execute_process(
    COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --head --batch 8
      --replicas ${replicas} --shard classes --backend fork
    INPUT_FILE "${ROWS}"
    OUTPUT_FILE "${WORK_DIR}/${label}.txt"
    ERROR_VARIABLE err RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "serve ${label}: exit ${code}\n${err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORK_DIR}/${label}.txt" "${DATA_DIR}/beijing_bands.golden"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "cluster_e2e: ${label} bands differ from the committed golden")
  endif()
endforeach()

# --- per-row latency is measured through the cluster too: admission to
# write, from the same micro-batch loop as one process, never a constant 0.
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --batch 8 --format csv --latency
    --replicas 2 --backend fork
  INPUT_FILE "${ROWS}"
  OUTPUT_FILE "${WORK_DIR}/latency.csv"
  ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --latency --replicas 2: exit ${code}\n${err}")
endif()
file(STRINGS "${WORK_DIR}/latency.csv" latency_lines)
set(latency_rows 0)
set(latency_nonzero 0)
foreach(line IN LISTS latency_lines)
  if(line MATCHES "^[0-9]+,[^,]+,([^,]+)$")
    math(EXPR latency_rows "${latency_rows} + 1")
    if(NOT CMAKE_MATCH_1 MATCHES "^0(\\.0*)?$")
      math(EXPR latency_nonzero "${latency_nonzero} + 1")
    endif()
  endif()
endforeach()
if(NOT latency_rows EQUAL 60 OR latency_nonzero EQUAL 0)
  message(FATAL_ERROR
    "cluster_e2e: --latency --replicas 2 wrote ${latency_nonzero} nonzero "
    "latency_us values over ${latency_rows} rows (want 60 rows, not all 0)")
endif()

# --- invalid cluster flags are refused up front with a usage diagnostic.
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --replicas 2 --shard columns
  INPUT_FILE "${ROWS}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "shard")
  message(FATAL_ERROR
    "bad --shard: expected nonzero exit with a diagnostic, got ${code}\n${err}")
endif()
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --replicas 2 --backend mpi
  INPUT_FILE "${ROWS}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "backend")
  message(FATAL_ERROR
    "bad --backend: expected nonzero exit with a diagnostic, got ${code}\n${err}")
endif()

# --- the replica count is bounded before any rank starts: one past
# ShardedServer::max_replicas() is a named error (exit 1).  Loopback keeps
# the check from forking even if the bound were ever lost.
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --replicas 257 --backend loopback
  INPUT_FILE "${ROWS}"
  TIMEOUT 60
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 1 OR
   NOT err MATCHES "replicas 257 exceeds the supported maximum of 256")
  message(FATAL_ERROR
    "--replicas 257: expected exit 1 naming the bound, got ${code}\n${err}")
endif()

message(STATUS "cluster_e2e: all checks passed")
