# Runs qdlpd with one malformed flag set at a time and requires what a bad
# value must produce: the usage line on stderr and exit status 2, before
# anything is allocated or bound. A value that qdlpd wrongly accepts starts
# a server, which the timeout stops and this script reports. A case that
# needs more than one flag lists them space-separated in one item.
#
#   cmake -DQDLPD_BIN=<path to qdlpd> -P qdlpd_bad_flags.cmake
foreach(flags IN ITEMS
    --capacity=abc --capacity= --capacity=12k --capacity=-1 --capacity=0
    --capacity=1073741824 --capacity=99999999999999999999999
    --port=abc --port=70000 --port=-1
    --arena-mb=0 --arena-mb=abc --arena-mb=32769 --arena-mb=17592186044416
    "--arena-mb=16 --shards=8"
    --workers=0 --workers=257 --shards=0 --stripes=0 --bogus)
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND ${QDLPD_BIN} ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: qdlpd")
    message(FATAL_ERROR
      "qdlpd ${flags}: exit status '${status}', stderr:\n${err}")
  endif()
endforeach()
