"""Exception and warning types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its admissible range."""


class BandRangeError(ValueError):
    """A level or level band falls outside the grid's wavelet band."""


class GridMismatchError(ValueError):
    """Two objects were built on incompatible grids."""


class BasisConstructionError(ValueError):
    """A basis cannot be realized on the requested grid (e.g. Nyquist)."""


class IndexOutOfBandError(KeyError):
    """A wavelet index does not belong to the basis index set."""


class MomentConditioningError(ArithmeticError):
    """The per-cube moment system is numerically singular."""

    def __init__(self, cube, cond):
        self.cube = cube
        self.cond = cond
        super().__init__(
            f"moment system ill-conditioned at cube {cube} (cond={cond:.3e})"
        )


class DegenerateRegimeWarning(UserWarning):
    """gamma2 > n/p: in the continuum limit the space contains only polynomials."""


class QuadratureWarning(UserWarning):
    """An adaptive quadrature stopped short of its tolerance (QUADPACK ier > 0)."""
