# One case of the `cli` ctest label: run COMMAND (arguments separated by
# '|') and require exit status 0.  With MATCH set, stdout must contain it;
# with NO_MATCH set, stdout must not.
#   cmake "-DCOMMAND=mldist_cli|test|--json|..." "-DMATCH=\"verdict\"" \
#         -P cli_expect.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR
          "exit status '${status}', expected 0\n${stdout}\n${stderr}")
endif()
if(DEFINED MATCH)
  string(FIND "${stdout}" "${MATCH}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks ${MATCH}:\n${stdout}")
  endif()
endif()
if(DEFINED NO_MATCH)
  string(FIND "${stdout}" "${NO_MATCH}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "stdout has ${NO_MATCH}:\n${stdout}")
  endif()
endif()
