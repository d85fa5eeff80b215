"""Iterated cosine and sine maps: fixed points, calculus, and escape-time scans.

The names of `derivatives` and `iteration` are bound when the package
loads, and so are `MANDELBROT` and `MAX_GRID`, which `fractal` takes
from `iteration`.  `fractal` and `series` import numpy, so their other
public names are bound on first use instead: reading one, as
`trigiter.scan_raw` or `from trigiter import iterated_series` do,
imports its module and binds all of that module's lazy names (PEP 562).
So `import trigiter` loads no numpy, nor do the scalar calls, nor
`from trigiter import MANDELBROT, MAX_GRID`.

Nor does it load `dataclasses`, and with it `inspect`, or `typing`:
`iteration`'s records are named tuples, and no module imports `typing`.
"""

import importlib

from . import derivatives, iteration
from .derivatives import *  # noqa: F403
from .iteration import *  # noqa: F403
from .iteration import MANDELBROT, MAX_GRID

__version__ = "0.1.0"

# The public names of the modules loaded on first use, in the order of
# their __all__: fractal's, less the two it takes from iteration.
_FRACTAL = ["EscapeParams", "PointSet", "scan_raw", "format_points"]
_SERIES = ["PowerSeries", "TailBoundError", "cos_series", "sin_series", "cauchy_product", "compose", "iterated_series"]
_LAZY = {"fractal": _FRACTAL, "series": _SERIES}

__all__ = (
    derivatives.__all__
    + ["MANDELBROT", "EscapeParams", "PointSet", "MAX_GRID", "scan_raw", "format_points"]  # fractal.__all__
    + iteration.__all__
    + _SERIES
    + ["__version__"]
)


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
