# Run one deterministic sim bench and compare its stdout, byte for byte,
# with the checked-in table.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<expected .txt> -DACTUAL=<out .txt>
#         -P compare.cmake
#
# The sim benches run on virtual time, so any difference is a behaviour
# change in the code under them. When a change to the model is intended,
# regenerate the table with `build/bench/<bench> > tests/golden/<bench>.txt`
# and say why in the commit.
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(WRITE "${ACTUAL}" "${actual}")
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
