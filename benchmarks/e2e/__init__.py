"""The repo's end-to-end benchmark (see README.md in this directory).

``python3 -m benchmarks.e2e --workload W --seed S --seconds T --trace 0|1``
runs one workload in fresh child processes under a watchdog and prints
one JSON result line; without ``--workload`` it runs the whole suite.
"""
