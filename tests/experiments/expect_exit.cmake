# Runs `BIN --check DOC` and fails unless it exits with EXIT and its
# output matches the regex OUTPUT:
#   cmake -DBIN=... -DDOC=... -DEXIT=1 -DOUTPUT=... -P expect_exit.cmake
execute_process(COMMAND ${BIN} --check ${DOC} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL EXIT OR NOT out MATCHES "${OUTPUT}")
  message(FATAL_ERROR "exit ${rc}, want ${EXIT} and /${OUTPUT}/:\n${out}")
endif()
