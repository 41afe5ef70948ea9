"""Policy-gradient estimation from exploration batches, with sensors.

Trial scores collected around a nominal policy are regressed on the
sampled policies to estimate the value gradient; feeding the trials'
sensor readings into the regression removes the score noise the sensors
explain and tightens the estimate.  The package provides the two
estimators and their variance laws, a leave-one-out search over sensor
projections, simulated tasks to run them on, a learned-dynamics sensor
pipeline for the arm task, a hill-climbing driver, and a command-line
experiment harness.  Each name is imported from the module that defines
it (``sensorgrad.estimators.estimate_g2``); this package root exports
nothing and imports no submodule.

It only sets up BLAS, and importing any submodule runs it first.
Imported before numpy, it runs BLAS in one thread, as every run does,
unless the environment sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``.  Imported after numpy, it
leaves all three as they are: BLAS has already chosen its threads, and
the variables would only reach child processes.
"""

import os
import sys

# Before any submodule loads numpy: BLAS reads these once.
if "numpy" not in sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")
    del _name
