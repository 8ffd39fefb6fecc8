# Runs a program and fails unless it exits with the expected code:
#
#   cmake -DCODE=<n> -P expect_exit.cmake -- <program> [args...]
#
# Registered through davinci_exit_test() (top-level CMakeLists.txt) for
# the usage-error and --help cases of every tool and bench.
set(cmd)
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${CODE}")
  message(FATAL_ERROR "exit '${code}', expected ${CODE}: ${cmd}\n${err}")
endif()
