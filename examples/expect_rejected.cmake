# Passes when `${EXE} ${FLAG} ${VALUE}` exits non-zero and its stderr names
# FLAG: a malformed flag value must stop run_experiment, not run a default.
#
#   cmake -DEXE=run_experiment -DFLAG=--seed -DVALUE=12x -P expect_rejected.cmake
execute_process(COMMAND "${EXE}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "accepted: ${FLAG} ${VALUE}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}: ${err}")
endif()
