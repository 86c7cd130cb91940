# Runs qdlpd with one malformed flag at a time and requires what a bad value
# must produce: the usage line on stderr and exit status 2, before anything
# is allocated or bound. A value that qdlpd wrongly accepts starts a server,
# which the timeout stops and this script reports.
#
#   cmake -DQDLPD_BIN=<path to qdlpd> -P qdlpd_bad_flags.cmake
foreach(flag IN ITEMS
    --capacity=abc --capacity= --capacity=12k --capacity=-1 --capacity=0
    --capacity=1073741824 --capacity=99999999999999999999999
    --port=abc --port=70000 --port=-1
    --arena-mb=0 --arena-mb=abc --arena-mb=32769 --arena-mb=17592186044416
    --workers=0 --workers=257 --shards=0 --stripes=0 --bogus)
  execute_process(COMMAND ${QDLPD_BIN} ${flag}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: qdlpd")
    message(FATAL_ERROR
      "qdlpd ${flag}: exit status '${status}', stderr:\n${err}")
  endif()
endforeach()
