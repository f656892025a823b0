# hdcgen CLI smoke suite, run by ctest as `hdcgen_smoke`.
#
# Asserts the contract a shell user sees: snap -> snap-info round trips for
# both basis and pipeline snapshots on a scratch directory, the basis
# inspectors (info / dist / heatmap) over a snap --kind file, and bad args /
# unknown subcommands / corrupt or truncated files exit nonzero with a
# diagnostic instead of crashing.
#
# Inputs: -DHDCGEN=<tool path> -DWORK_DIR=<scratch dir>
#         -DFIXTURE_DIR=<committed golden snapshots (tests/io/fixtures)>

if(NOT DEFINED HDCGEN OR NOT DEFINED WORK_DIR OR NOT DEFINED FIXTURE_DIR)
  message(FATAL_ERROR
    "hdcgen_smoke: pass -DHDCGEN=..., -DWORK_DIR=... and -DFIXTURE_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<ok|fail> <needle> <out_var> args...): invokes hdcgen, asserts the
# exit code, and asserts <needle> appears in combined stdout+stderr (pass ""
# to skip the output check).
function(run expectation needle)
  execute_process(
    COMMAND "${HDCGEN}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  set(all "${out}${err}")
  if(expectation STREQUAL "ok" AND NOT code EQUAL 0)
    message(FATAL_ERROR
      "hdcgen ${pretty}: expected success, got exit ${code}\n${all}")
  endif()
  if(expectation STREQUAL "fail" AND code EQUAL 0)
    message(FATAL_ERROR "hdcgen ${pretty}: expected a nonzero exit\n${all}")
  endif()
  if(NOT needle STREQUAL "" AND NOT all MATCHES "${needle}")
    message(FATAL_ERROR
      "hdcgen ${pretty}: output lacks '${needle}'\n${all}")
  endif()
endfunction()

# run_stdin(<ok|fail> <needle> <input_file> args...): run() with stdin
# redirected from <input_file>, for the streaming serve subcommand.
function(run_stdin expectation needle input_file)
  execute_process(
    COMMAND "${HDCGEN}" ${ARGN}
    INPUT_FILE "${input_file}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  set(all "${out}${err}")
  if(expectation STREQUAL "ok" AND NOT code EQUAL 0)
    message(FATAL_ERROR
      "hdcgen ${pretty}: expected success, got exit ${code}\n${all}")
  endif()
  if(expectation STREQUAL "fail" AND code EQUAL 0)
    message(FATAL_ERROR "hdcgen ${pretty}: expected a nonzero exit\n${all}")
  endif()
  if(NOT needle STREQUAL "" AND NOT all MATCHES "${needle}")
    message(FATAL_ERROR
      "hdcgen ${pretty}: output lacks '${needle}'\n${all}")
  endif()
endfunction()

# --- snap -> snap-info round trip on a basis snapshot.
run(ok "wrote" snap --kind circular --size 8 --dim 96 --r 0.1
    --out "${WORK_DIR}/basis.hdcs")
run(ok "kind=circular" snap-info "${WORK_DIR}/basis.hdcs")
run(ok "all sections OK" snap-info "${WORK_DIR}/basis.hdcs")

# --- the basis inspectors read section 0 of a snap --kind file.
run(ok "wrote" snap --kind circular --size 16 --dim 1024 --seed 3
    --out "${WORK_DIR}/circular.hdcs")
run(ok "kind:       circular" info "${WORK_DIR}/circular.hdcs")
run(ok "pairwise delta" info "${WORK_DIR}/circular.hdcs")
run(ok "0.000" dist "${WORK_DIR}/circular.hdcs")
run(ok "@@" heatmap "${WORK_DIR}/circular.hdcs")
# A snapshot whose section 0 is a model, not a basis, is refused by name.
run(fail "is not a basis arena" info "${FIXTURE_DIR}/classifier.hdcs")

# --- snap --pipeline -> snap-info round trip for both pipeline kinds.
run(ok "classifier pipeline" snap --pipeline classifier --dim 96
    --out "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "pipeline" snap-info "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "featureenc" snap-info "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "regressor pipeline" snap --pipeline regressor --dim 96
    --out "${WORK_DIR}/pipeline_reg.hdcs")
run(ok "multiscale" snap-info "${WORK_DIR}/pipeline_reg.hdcs")
run(ok "all sections OK" snap-info "${WORK_DIR}/pipeline_reg.hdcs")

# --- snap-fixtures regenerates the full golden set.
run(ok "pipeline_combined" snap-fixtures "${WORK_DIR}/fixtures")

# --- kernels: dispatch report always lists the scalar fallback as both
# compiled in and available, whatever the build machine's ISA.
run(ok "active:" kernels)
run(ok "scalar" kernels)

# --- serve honors --kernel (both flag shapes) and rejects unknown
# variants with the available list instead of crashing.  One CSV row in,
# one prediction out, pinned-variant name in the stderr summary.
file(WRITE "${WORK_DIR}/one_row.csv" "100.5\n")
run_stdin(ok "kernels = scalar" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel scalar)
run_stdin(ok "kernels = scalar" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel=scalar)
run_stdin(fail "not a compiled-in kernel variant" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel bogus)

# --- serve --listen takes a decimal PORT in 0..65535: an out-of-range,
# negative or non-numeric port is a named flag error (exit 1), never a
# wrapped port that is silently listened on.  The timeout turns a server
# that did start listening into a failure instead of a hang.
foreach(bad_port 70000 -1 abc)
  execute_process(
    COMMAND "${HDCGEN}" serve "${WORK_DIR}/pipeline_reg.hdcs"
      --listen "127.0.0.1:${bad_port}"
    TIMEOUT 10
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(want "PORT in 0\\.\\.65535, got '127\\.0\\.0\\.1:${bad_port}'")
  if(NOT code EQUAL 1 OR NOT err MATCHES "${want}")
    message(FATAL_ERROR
      "serve --listen 127.0.0.1:${bad_port}: expected exit 1 naming the port "
      "range, got '${code}'\n${out}${err}")
  endif()
endforeach()

# --- serve --flush-us is bounded before it becomes an interval: a count
# that would wrap to a negative ("off") interval, or overflow the
# nanosecond deadline arithmetic, is a named flag error (exit 1).  The
# bound itself (one year in microseconds) is still accepted.
foreach(bad_flush 18446744073709551615 9223372036854775807)
  execute_process(
    COMMAND "${HDCGEN}" serve "${WORK_DIR}/pipeline_reg.hdcs"
      --flush-us ${bad_flush}
    INPUT_FILE "${WORK_DIR}/one_row.csv"
    TIMEOUT 10
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(want "--flush-us ${bad_flush} exceeds the maximum of 31536000000000")
  if(NOT code EQUAL 1 OR NOT err MATCHES "${want}")
    message(FATAL_ERROR
      "serve --flush-us ${bad_flush}: expected exit 1 naming the bound, "
      "got '${code}'\n${out}${err}")
  endif()
endforeach()
run_stdin(ok "served 1 rows" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --flush-us 31536000000000)

# --- flag spellings: `--flag value` and `--flag=value` mix freely across
# different flags, but the same flag twice — in any spelling combination —
# is a diagnosed error, never a silent first-wins.
run(ok "wrote" snap --kind=circular --size 8 --dim=96 --r 0.1
    --out "${WORK_DIR}/mixed.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim 96 --dim 128 --out "${WORK_DIR}/dup.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim=96 --dim=128 --out "${WORK_DIR}/dup.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim 96 --dim=128 --out "${WORK_DIR}/dup.hdcs")

# --- delta/patch: identical snapshots have nothing to patch, snapshots
# that differ outside the model payload cannot be bridged, and patch
# demands an actual delta file.  (The positive round trip — adapt, export,
# patch, byte-compare — runs in the adapt e2e test, which can drive the
# socket feedback path.)
run(ok "classifier pipeline" snap --pipeline classifier --dim 96 --seed 7
    --out "${WORK_DIR}/other_seed.hdcs")
run(fail "identical" delta "${WORK_DIR}/pipeline_cls.hdcs"
    "${WORK_DIR}/pipeline_cls.hdcs" --out "${WORK_DIR}/noop.delta")
run(fail "differ outside the model payload"
    delta "${WORK_DIR}/pipeline_cls.hdcs" "${WORK_DIR}/other_seed.hdcs"
    --out "${WORK_DIR}/bad.delta")
run(fail "" delta "${WORK_DIR}/pipeline_cls.hdcs")       # missing operand
run(fail "not a single-section delta"
    patch "${WORK_DIR}/pipeline_cls.hdcs" "${WORK_DIR}/other_seed.hdcs"
    --out "${WORK_DIR}/bad_patch.hdcs")

# --- bad args: usage errors exit nonzero with a diagnostic.
run(fail "usage")                                  # no command at all
run(fail "usage" snap)                             # snap without flags
run(fail "unknown kind" snap --kind bogus --size 8 --out "${WORK_DIR}/x.hdcs")
run(fail "unknown pipeline" snap --pipeline bogus --out "${WORK_DIR}/x.hdcs")
run(fail "usage" snap-info)                        # missing file operand
run(fail "usage" gen --kind circular --size 8      # retired subcommand
    --out "${WORK_DIR}/x.hdcs")

# --- missing, truncated and corrupt files: diagnostic, nonzero, no crash.
run(fail "hdcgen:" snap-info "${WORK_DIR}/does_not_exist.hdcs")

# A file cut off mid-header: correct magic, nothing else.
file(WRITE "${WORK_DIR}/truncated.hdcs" "HDCS")
run(fail "hdcgen:" snap-info "${WORK_DIR}/truncated.hdcs")

# A corrupt (non-snapshot) file with the right name must be rejected too;
# long enough to pass the header-size gate so the magic check fires.
string(REPEAT "this is not an HDCS snapshot at all. " 4 garbage)
file(WRITE "${WORK_DIR}/garbage.hdcs" "${garbage}")
run(fail "not an HDCS snapshot" snap-info "${WORK_DIR}/garbage.hdcs")
run(fail "not an HDCS snapshot" info "${WORK_DIR}/garbage.hdcs")

message(STATUS "hdcgen_smoke: all checks passed")
