# The check behind `example_uintah_inspect` (examples/CMakeLists.txt):
#
#   cmake -DINSPECT=<spio_inspect> -DDIR=<series base> -P inspect_series.cmake
#
# runs `spio_inspect DIR --deep` on the Uintah example's checkpoint series.
# It must exit 0 and report all three steps of the series.
execute_process(COMMAND "${INSPECT}" "${DIR}" --deep
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spio_inspect exited with ${rc}")
endif()
if(NOT out MATCHES "time series with 3 step\\(s\\)")
  message(FATAL_ERROR "spio_inspect did not report a 3-step series")
endif()
