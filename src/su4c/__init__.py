"""Two-qubit unitary compiler and verification toolkit.

The pipeline: an arbitrary 4x4 unitary is decomposed into four
single-qubit letters around a canonical entangling block (`decompose`),
lowered to the angles of one fixed calibrated pulse template (`pulse_angles`),
executed on a simulated noisy device (`run_experiments`, or
`run_experiment` for one program), and validated by state or process
tomography and fidelity measures. Data passes between the stages as
arrays: angle rows (N, 32), count tables (N, 9, 4) with rows in
`MEASUREMENT_SETTINGS` order, and the output states (16, 4, 4) of the
preparations in `TOMOGRAPHY_INPUT_LABELS` order.

The package exports the `__all__` of each of its eight modules; each module
states its own public names once.
"""

from . import circuits, compiler, config, experiment, gates, haar, linalg, tomography
from .circuits import *
from .compiler import *
from .config import *
from .experiment import *
from .gates import *
from .haar import *
from .linalg import *
from .tomography import *

__version__ = "1.0.0"

__all__ = ["__version__"] + [
    name
    for module in (circuits, compiler, config, experiment, gates, haar, linalg, tomography)
    for name in module.__all__
]
