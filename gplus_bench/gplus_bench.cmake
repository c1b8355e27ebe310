# Build file of the repository benchmark, gplus_bench. It is not a project
# of its own: it attaches the benchmark to the top-level project, so
# gplus_bench gets the same compiler flags, build type and library targets
# as every binary under bench/, and the top-level CMakeLists.txt does not
# name it. From the repository root:
#
#   cmake -S . -B .bench_build \
#         -DCMAKE_PROJECT_gplusgraph_INCLUDE=$PWD/gplus_bench/gplus_bench.cmake
#   cmake --build .bench_build --target gplus_bench
#   ctest --test-dir .bench_build -R gplus_bench
#
# run.py does the first two before every run (a no-op once built).
#
# CMake includes this file at the end of the top-level project() call, before
# the project sets its language standard, flags and targets; the targets are
# therefore defined by a call deferred to the end of the top-level
# CMakeLists.txt.
function(gplus_bench_targets)
  set(dir ${CMAKE_CURRENT_FUNCTION_LIST_DIR})
  add_executable(gplus_bench ${dir}/gplus_bench.cpp)
  target_link_libraries(gplus_bench PRIVATE gplus_serve gplus_core gplus_algo)

  # Every workload at smoke size, traced and untraced: each run passes its
  # checks and reports every metric BENCHMARK.json names; serve-hot's
  # response checksum is the same at GPLUS_THREADS=1 and 4.
  add_test(NAME gplus_bench_smoke
           COMMAND python3 ${dir}/run_benchmark.py
                   --smoke $<TARGET_FILE:gplus_bench>
           WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
endfunction()

cmake_language(DEFER CALL gplus_bench_targets)
