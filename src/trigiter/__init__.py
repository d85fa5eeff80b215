"""Iterated cosine and sine maps: fixed points, calculus, and escape-time scans."""

from . import derivatives, fractal, iteration, series
from .derivatives import *  # noqa: F403
from .fractal import *  # noqa: F403
from .iteration import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = derivatives.__all__ + fractal.__all__ + iteration.__all__ + series.__all__ + ["__version__"]
