# Build file of the szsec end-to-end benchmark (perfbench/).
#
# The benchmark must measure the library exactly as the repository
# builds it, so it does not re-describe the library build.  Instead this
# file is injected into the repository's own top-level project as its
# project include:
#
#   cmake -S . -B .bench_build/cmake -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_szsec_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build/cmake --target szsec_perfbench -j 4
#
# CMake includes it right after the root project(szsec) call; the
# module targets it links are defined later by add_subdirectory(src),
# which is fine because target names are resolved at generate time.
# perfbench/run.py runs exactly these two commands.

add_executable(szsec_perfbench
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/common.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/archive_workload.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/service_workload.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/layers.cpp
)
# The root project sets its C++ standard after project(), i.e. after
# this file ran, so the target asks for it itself.
target_compile_features(szsec_perfbench PRIVATE cxx_std_20)
target_compile_options(szsec_perfbench PRIVATE -Wall -Wextra)
target_link_libraries(szsec_perfbench PRIVATE
  szsec_capi szsec_service szsec_data)
