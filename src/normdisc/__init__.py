"""normdisc: point sets and certificates for discretizing L1/L2 norms."""

__version__ = "0.1.0"

from .spaces import (
    FrequencySet,
    OrthonormalSystem,
    PointSet,
    Quadrature,
    TrigPolynomial,
    build_box,
    build_hyperbolic_cross,
    freqset,
    grid_P,
    real_trig_system,
)

__all__ = [
    "__version__",
    "FrequencySet",
    "OrthonormalSystem",
    "PointSet",
    "Quadrature",
    "TrigPolynomial",
    "build_box",
    "build_hyperbolic_cross",
    "freqset",
    "grid_P",
    "real_trig_system",
]
