"""Label-secure learning toolkit.

Sample-complexity algebra for PAC learning under label noise, the
information-theoretic disturbance thresholds, an exact one-qubit simulation
of a label-delivery protocol with eavesdropping, and a desk-scale Monte
Carlo harness for learning-probability experiments.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package namespace re-exports those lists unchanged.
"""

# Set before the submodules load: reports (imported by protocol) reads it.
__version__ = "0.1.0"

from . import (  # noqa: E402
    adversary,
    errors,
    info_theory,
    learn_harness,
    pac_bounds,
    protocol,
    qubit,
    stats,
)

_MODULES = (
    errors, pac_bounds, stats, info_theory, qubit, adversary, protocol, learn_harness
)

__all__ = ["__version__"]
for _module in _MODULES:
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
