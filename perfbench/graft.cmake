# Included at the end of the repository's project() call (passed as
# CMAKE_PROJECT_INCLUDE by perfbench/run.py): adds the perfbench directory to
# the repository build.  Targets it links are resolved at generate time.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" perfbench)
