# End-to-end serving suite, run by ctest as `serve_e2e`.
#
# The full cold-start story in one script: `hdcgen snap --pipeline beijing`
# writes the composed Y ⊗ D ⊗ H regression pipeline as one HDCS artifact,
# `hdcgen serve` streams the committed test rows through it, and the
# predictions must match the committed golden file byte for byte — over the
# checksum-verified mmap path, the Trust fast path, and for several batch
# sizes and thread counts (the batch engines' determinism contract).
# Malformed traffic must exit nonzero with a row-numbered diagnostic.
#
# Inputs: -DHDCGEN=<tool path> -DWORK_DIR=<scratch dir>
#         -DDATA_DIR=<tests/serve/data>

if(NOT DEFINED HDCGEN OR NOT DEFINED WORK_DIR OR NOT DEFINED DATA_DIR)
  message(FATAL_ERROR
    "serve_e2e: pass -DHDCGEN=... -DWORK_DIR=... and -DDATA_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ROWS "${DATA_DIR}/beijing_rows.csv")
set(GOLDEN "${DATA_DIR}/beijing_predictions.golden")
set(SNAPSHOT "${WORK_DIR}/beijing.hdcs")

# serve(<out_file> args...): hdcgen serve < ROWS > out_file, asserting exit 0.
function(serve out_file)
  execute_process(
    COMMAND "${HDCGEN}" serve "${SNAPSHOT}" ${ARGN}
    INPUT_FILE "${ROWS}"
    OUTPUT_FILE "${out_file}"
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  string(JOIN " " pretty ${ARGN})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "hdcgen serve ${pretty}: exit ${code}\n${err}")
  endif()
  # The operator-facing summary goes to stderr, predictions to stdout.
  if(NOT err MATCHES "served 60 rows")
    message(FATAL_ERROR "hdcgen serve ${pretty}: summary lacks row count\n${err}")
  endif()
endfunction()

function(diff_golden out_file label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${out_file}" "${GOLDEN}"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "serve_e2e: ${label} predictions differ from the committed golden "
      "(${out_file} vs ${GOLDEN})")
  endif()
endfunction()

# --- train -> snapshot: one file carries the whole composed pipeline.
execute_process(
  COMMAND "${HDCGEN}" snap --pipeline beijing --out "${SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "hdcgen snap --pipeline beijing: exit ${code}\n${out}${err}")
endif()

# --- snap-info sees the composed section wiring.
execute_process(
  COMMAND "${HDCGEN}" snap-info "${SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0 OR NOT "${out}${err}" MATCHES "composed")
  message(FATAL_ERROR "snap-info lacks the composed section\n${out}${err}")
endif()

# --- serve over the committed rows: golden byte equality on the
# checksum-verified mmap path, the Trust path, and across batch/thread
# shapes (batch 1 = pure streaming, 7 = partial final batch, 256 = one
# batch; thread counts 1 and 4).
serve("${WORK_DIR}/checksum.txt")
diff_golden("${WORK_DIR}/checksum.txt" "mmap+checksum")
serve("${WORK_DIR}/trust.txt" --trust)
diff_golden("${WORK_DIR}/trust.txt" "mmap+trust")
serve("${WORK_DIR}/batch1.txt" --batch 1 --threads 1)
diff_golden("${WORK_DIR}/batch1.txt" "batch=1")
serve("${WORK_DIR}/batch7.txt" --batch 7 --threads 4)
diff_golden("${WORK_DIR}/batch7.txt" "batch=7")
serve("${WORK_DIR}/batch256.txt" --batch 256 --flush-us 1000000)
diff_golden("${WORK_DIR}/batch256.txt" "batch=256")

# --- --flush-us bounds staleness, it must not shrink batches: rows already
# buffered on stdin join the pending batch, so 60 rows at --batch 16 go
# out as 16 + 16 + 16 + 12, whether stdin is a file or a pipe.  (A reader
# that never sees buffered input flushes a batch of one per row.)
set(flush_args --batch 16 --flush-us 10000000)
foreach(source file pipe)
  set(out_file "${WORK_DIR}/flush_${source}.txt")
  if(source STREQUAL "file")
    execute_process(
      COMMAND "${HDCGEN}" serve "${SNAPSHOT}" ${flush_args}
      INPUT_FILE "${ROWS}"
      OUTPUT_FILE "${out_file}"
      ERROR_VARIABLE err
      RESULT_VARIABLE code)
  else()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E cat "${ROWS}"
      COMMAND "${HDCGEN}" serve "${SNAPSHOT}" ${flush_args}
      OUTPUT_FILE "${out_file}"
      ERROR_VARIABLE err
      RESULT_VARIABLE code)
  endif()
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "hdcgen serve --flush-us (${source}): exit ${code}\n${err}")
  endif()
  if(NOT err MATCHES "served 60 rows in 4 batches")
    message(FATAL_ERROR
      "hdcgen serve --batch 16 --flush-us 10000000 (${source}): expected "
      "'served 60 rows in 4 batches'\n${err}")
  endif()
  diff_golden("${out_file}" "--flush-us ${source}")
endforeach()

# --- JSONL input of the same rows must serve the same predictions.
file(READ "${ROWS}" csv_rows)
string(REGEX REPLACE "([^\n]+)\n" "[\\1]\n" jsonl_rows "${csv_rows}")
file(WRITE "${WORK_DIR}/rows.jsonl" "${jsonl_rows}")
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --input jsonl
  INPUT_FILE "${WORK_DIR}/rows.jsonl"
  OUTPUT_FILE "${WORK_DIR}/jsonl.txt"
  ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "hdcgen serve --input jsonl: exit ${code}\n${err}")
endif()
diff_golden("${WORK_DIR}/jsonl.txt" "jsonl input")

# --- prediction heads: the same snapshot serves p10/p50/p90 bands next to
# every prediction, byte-exact against committed goldens in all three
# writer formats.
function(diff_files got want label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${got}" "${want}"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "serve_e2e: ${label} output differs from the committed golden "
      "(${got} vs ${want})")
  endif()
endfunction()

serve("${WORK_DIR}/bands.txt" --head)
diff_files("${WORK_DIR}/bands.txt" "${DATA_DIR}/beijing_bands.golden"
  "band head (plain)")
serve("${WORK_DIR}/bands.csv" --head --format csv)
diff_files("${WORK_DIR}/bands.csv" "${DATA_DIR}/beijing_bands_csv.golden"
  "band head (csv)")
serve("${WORK_DIR}/bands.jsonl" --head --format jsonl)
diff_files("${WORK_DIR}/bands.jsonl" "${DATA_DIR}/beijing_bands_jsonl.golden"
  "band head (jsonl)")
serve("${WORK_DIR}/bands_batch3.txt" --head --batch 3 --threads 4)
diff_files("${WORK_DIR}/bands_batch3.txt" "${DATA_DIR}/beijing_bands.golden"
  "band head (batch=3)")

# --- text pipeline: snap --pipeline text -> serve raw samples with
# --input text, byte-exact against the committed golden, with the
# confidence head as a second pass.
set(TEXT_SNAPSHOT "${WORK_DIR}/text.hdcs")
set(TEXT_ROWS "${DATA_DIR}/text_rows.txt")
execute_process(
  COMMAND "${HDCGEN}" snap --pipeline text --out "${TEXT_SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "hdcgen snap --pipeline text: exit ${code}\n${out}${err}")
endif()
execute_process(
  COMMAND "${HDCGEN}" snap-info "${TEXT_SNAPSHOT}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 0 OR NOT "${out}${err}" MATCHES "sequence")
  message(FATAL_ERROR "snap-info lacks the sequence encoder\n${out}${err}")
endif()

function(serve_text out_file)
  execute_process(
    COMMAND "${HDCGEN}" serve "${TEXT_SNAPSHOT}" --input text ${ARGN}
    INPUT_FILE "${TEXT_ROWS}"
    OUTPUT_FILE "${out_file}"
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  string(JOIN " " pretty ${ARGN})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "hdcgen serve --input text ${pretty}: exit ${code}\n${err}")
  endif()
  if(NOT err MATCHES "served 12 rows")
    message(FATAL_ERROR
      "hdcgen serve --input text ${pretty}: summary lacks row count\n${err}")
  endif()
endfunction()

serve_text("${WORK_DIR}/text.txt")
diff_files("${WORK_DIR}/text.txt" "${DATA_DIR}/text_predictions.golden"
  "text pipeline")
serve_text("${WORK_DIR}/text_batch5.txt" --batch 5 --threads 4)
diff_files("${WORK_DIR}/text_batch5.txt" "${DATA_DIR}/text_predictions.golden"
  "text pipeline (batch=5)")
serve_text("${WORK_DIR}/text_conf.txt" --head)
diff_files("${WORK_DIR}/text_conf.txt" "${DATA_DIR}/text_confidence.golden"
  "confidence head")

# --- wire-format gates: numeric input to a text pipeline (and the
# reverse) must be refused before any prediction, as must a band head on a
# classifier.
execute_process(
  COMMAND "${HDCGEN}" serve "${TEXT_SNAPSHOT}"
  INPUT_FILE "${ROWS}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "text")
  message(FATAL_ERROR
    "csv rows into a text pipeline: expected a refusal naming the text "
    "input mode, got ${code}\n${err}")
endif()
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}" --input text
  INPUT_FILE "${TEXT_ROWS}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR
    "--input text against a numeric pipeline was accepted\n${out}${err}")
endif()

# --- malformed traffic: nonzero exit, row-numbered diagnostic, no crash.
file(WRITE "${WORK_DIR}/bad_arity.csv" "0,15,3\n1,180\n")
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}"
  INPUT_FILE "${WORK_DIR}/bad_arity.csv"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "row 2")
  message(FATAL_ERROR
    "truncated row: expected nonzero exit naming row 2, got ${code}\n${err}")
endif()

file(WRITE "${WORK_DIR}/bad_field.csv" "0,abc,3\n")
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}"
  INPUT_FILE "${WORK_DIR}/bad_field.csv"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "not a number")
  message(FATAL_ERROR
    "non-numeric field: expected a diagnostic, got ${code}\n${err}")
endif()

# --- non-finite fields: nan/inf are data corruption, not numbers — the
# reader must refuse them with a row-numbered diagnostic instead of
# poisoning a whole batch of similarity scores downstream.
file(WRITE "${WORK_DIR}/bad_nonfinite.csv" "0,15,3\n0.5,nan,3\n")
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}"
  INPUT_FILE "${WORK_DIR}/bad_nonfinite.csv"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "row 2" OR NOT err MATCHES "not finite")
  message(FATAL_ERROR
    "nan field: expected nonzero exit naming row 2 as not finite, "
    "got ${code}\n${err}")
endif()

file(WRITE "${WORK_DIR}/bad_overflow.csv" "1e999,15,3\n")
execute_process(
  COMMAND "${HDCGEN}" serve "${SNAPSHOT}"
  INPUT_FILE "${WORK_DIR}/bad_overflow.csv"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0 OR NOT err MATCHES "not finite")
  message(FATAL_ERROR
    "overflowing field: expected a not-finite diagnostic, got ${code}\n${err}")
endif()

# --- a downstream consumer hanging up mid-stream (broken pipe) must end
# the serve loop with a clean nonzero exit and an operator-readable
# summary, not a SIGPIPE death.  Enough rows to overrun the pipe buffer
# after `head` exits.
if(UNIX)
  file(READ "${ROWS}" csv_rows)
  string(REPEAT "${csv_rows}" 2000 many_rows)
  file(WRITE "${WORK_DIR}/many_rows.csv" "${many_rows}")
  execute_process(
    COMMAND "${HDCGEN}" serve "${SNAPSHOT}"
    COMMAND head -n 1
    INPUT_FILE "${WORK_DIR}/many_rows.csv"
    OUTPUT_VARIABLE out ERROR_VARIABLE err
    RESULTS_VARIABLE codes)
  list(GET codes 0 serve_code)
  if(NOT serve_code EQUAL 1 OR NOT err MATCHES "downstream closed")
    message(FATAL_ERROR
      "broken pipe: expected exit 1 with a 'downstream closed' summary, "
      "got ${serve_code}\n${err}")
  endif()
endif()

# --- a corrupt snapshot must be refused before any prediction.
file(WRITE "${WORK_DIR}/garbage.hdcs" "not a snapshot at all, not even close")
execute_process(
  COMMAND "${HDCGEN}" serve "${WORK_DIR}/garbage.hdcs"
  INPUT_FILE "${ROWS}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR "garbage snapshot served predictions\n${out}${err}")
endif()

message(STATUS "serve_e2e: all checks passed")
