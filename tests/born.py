"""Born probabilities of a density matrix in the nine measurement settings,
for tests that need the exact count table of a given state.

Outcome k of a setting with prerotation frame W has probability
<k| W rho W^dagger |k>. The frames come from experiment._SETTING_FRAMES, the
ones the executor measures in, and not from the sign table that the
executor's Born rule and the estimators share, so the table stays an
independent input to the reconstruction under test.
"""

import numpy as np

from su4c.experiment import _SETTING_FRAMES, MEASUREMENT_SETTINGS


def setting_probabilities(rho, setting):
    """The four outcome probabilities of one setting; rounding below zero
    is clipped and the four renormalized."""
    w = _SETTING_FRAMES[MEASUREMENT_SETTINGS.index(tuple(setting))]
    p = np.clip(np.real(np.diag(w @ rho @ w.conj().T)), 0.0, None)
    return p / p.sum()


def exact_table(rho):
    """The infinite-shot count table (9, 4) of rho: probabilities in place
    of counts, rows in MEASUREMENT_SETTINGS order."""
    return np.array([setting_probabilities(rho, s) for s in MEASUREMENT_SETTINGS])
