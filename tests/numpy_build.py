"""The numpy build a byte-exact assertion ran on, for its failure message.

numpy's float64 arccos, arctan2, exp, log and hypot do not round as the C
library does, and which of its SIMD kernels runs depends on the CPU, so a
digest pinned on one machine can differ on another with no change to su4c.
The message names the numpy version and the SIMD targets numpy dispatched
on this CPU, so such a mismatch can be told apart from a behaviour change.
"""

import numpy as np


def numpy_build() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return f"numpy {np.__version__}, SIMD dispatch unknown"
    targets = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return f"numpy {np.__version__}, SIMD dispatch: {' '.join(targets) or 'baseline only'}"
