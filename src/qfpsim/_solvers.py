"""The ``scipy.optimize`` solvers qfpsim calls, imported on first call.

Importing ``scipy.optimize`` takes longer than numpy and the rest of
qfpsim together, and the ``spectrum`` and ``beamsplitter`` commands call
no solver, so no module binds one at import.  Each function here imports
``scipy.optimize`` on its first call and forwards its arguments to the
function of the same name; the modules import these under that name.
"""


def brentq(*args, **kwargs):
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def curve_fit(*args, **kwargs):
    from scipy.optimize import curve_fit

    return curve_fit(*args, **kwargs)


def minimize(*args, **kwargs):
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)
