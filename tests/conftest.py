"""Pin BLAS to one thread for the test process.

The suite's small dense products run several times slower under
OpenBLAS's default thread count on a two-core machine, and pytest loads
this file before any test module imports numpy, which reads these
variables once when it loads. Values already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
