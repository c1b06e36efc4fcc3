# Runs the command after "--" and passes only when it exits with
# status 1 and its output matches EXPECT, so a rejected input is shown
# to fail cleanly (no signal, no exit 0) and to say why.
#
#   cmake -DEXPECT=<regex> -P expect_fatal.cmake -- <program> <args...>
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "expect_fatal.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}':\n"
                        "${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
    message(FATAL_ERROR "expected output matching '${EXPECT}', got:\n"
                        "${output}")
endif()
