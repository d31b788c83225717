# Runs one example binary: cmake -DEXE=<binary> -DGOLDEN=<file> -P run_example.cmake
# Fails unless the binary exits 0 and, when GOLDEN exists, its stdout
# matches that file byte for byte.
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with '${rc}'")
endif()
if(EXISTS ${GOLDEN})
  file(READ ${GOLDEN} expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "${EXE} stdout differs from ${GOLDEN}; got:\n${out}")
  endif()
endif()
