# The observability artifact checks (tests/CMakeLists.txt), in two roles:
#
#   cmake -DBENCH=<spio_bench> -DOUT=<dir> -P artifacts.cmake
#     runs a small write sweep with SPIO_TRACE, SPIO_STATS and
#     SPIO_PROFILE pointing into a fresh OUT;
#   cmake -DCHECKER=<spio_trace> -DARTIFACT=<file> -P artifacts.cmake
#     requires `spio_trace --check` to accept ARTIFACT and to reject a
#     copy of it cut to half its size (a document or stream that ends
#     mid-record), so a check that accepts anything fails too.
if(DEFINED BENCH)
  file(REMOVE_RECURSE "${OUT}")
  file(MAKE_DIRECTORY "${OUT}")
  set(ENV{SPIO_TRACE} "${OUT}/trace.json")
  set(ENV{SPIO_STATS} "20:${OUT}/stats.jsonl")
  set(ENV{SPIO_PROFILE} "${OUT}/profile.json")
  execute_process(COMMAND "${BENCH}" --ranks 8 --particles 5000 --reps 1
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spio_bench exited with ${rc}")
  endif()
  return()
endif()

if(NOT EXISTS "${ARTIFACT}")
  message(FATAL_ERROR "${ARTIFACT} was not written")
endif()
execute_process(COMMAND "${CHECKER}" --check "${ARTIFACT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spio_trace --check rejected ${ARTIFACT}")
endif()

file(SIZE "${ARTIFACT}" size)
math(EXPR half "${size} / 2")
file(READ "${ARTIFACT}" head LIMIT ${half})
set(truncated "${ARTIFACT}.truncated")
file(WRITE "${truncated}" "${head}")
execute_process(COMMAND "${CHECKER}" --check "${truncated}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "spio_trace --check accepted ${truncated}")
endif()
