"""Iterated cosine and sine maps: fixed points, calculus, and escape-time scans.

The names of `derivatives` and `iteration` are bound when the package
loads.  `fractal` and `series` import numpy, so their public names are
bound on first use instead: reading one, as `trigiter.scan_raw` or
`from trigiter import iterated_series` do, imports its module and binds
all of that module's public names (PEP 562).  So `import trigiter`
loads no numpy, and neither do the scalar calls.
"""

import importlib

from . import derivatives, iteration
from .derivatives import *  # noqa: F403
from .iteration import *  # noqa: F403

__version__ = "0.1.0"

# The public names of the modules loaded on first use: their __all__, in order.
_FRACTAL = ["MANDELBROT", "EscapeParams", "PointSet", "MAX_GRID", "scan_raw", "format_points"]
_SERIES = ["PowerSeries", "TailBoundError", "cos_series", "sin_series", "cauchy_product", "compose", "iterated_series"]
_LAZY = {"fractal": _FRACTAL, "series": _SERIES}

__all__ = derivatives.__all__ + _FRACTAL + iteration.__all__ + _SERIES + ["__version__"]


def __getattr__(name: str):
    for module_name, names in _LAZY.items():
        if name == module_name or name in names:
            # the import lock hands every thread the one module object
            module = importlib.import_module(f"{__name__}.{module_name}")
            if name == module_name:
                return module
            # a name already bound, by an earlier call or a patch, is kept
            for public in names:
                globals().setdefault(public, getattr(module, public))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
