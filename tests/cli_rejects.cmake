# One case of the `cli` ctest label: run COMMAND (arguments separated by
# '|') and require exit status 2 with FLAG named on stderr.  The timeout
# turns a run that takes the malformed value and trains or serves with it
# into a failure rather than a hang.
#   cmake -DFLAG=--epochs "-DCOMMAND=mldist_cli|train|--epochs|abc" \
#         -P cli_rejects.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', expected 2\n${stderr}")
endif()
string(FIND "${stderr}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${stderr}")
endif()
