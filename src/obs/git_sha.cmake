# Writes the build's revision stamp to OUT: a header defining FT_GIT_SHA,
# the short git revision of the tree at SRC ("unknown" outside a git
# checkout). The header is rewritten only when the revision changed, so
# an unchanged one recompiles nothing. src/CMakeLists.txt runs this at
# every build, so a build directory reused across commits restamps.
#
#   cmake -DSRC=<source dir> -DOUT=<header> -P git_sha.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()

set(text "#define FT_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE "${OUT}" "${text}")
endif()
