"""Exception types raised across the library.

Every error that a caller is expected to handle has its own class so that
tests and the CLI can discriminate failure modes without string matching.
"""


class AdiabatError(Exception):
    """Base class for all library-specific errors."""


# --- dense linear algebra ---------------------------------------------------

class NotHermitian(AdiabatError):
    """Input matrix deviates from its adjoint beyond the allowed tolerance."""


class NoConvergence(AdiabatError):
    """An iterative solver exhausted its sweep budget."""


class NonFinite(AdiabatError):
    """Input contains NaN or Inf entries."""


class NotPSD(AdiabatError):
    """Matrix has an eigenvalue below the negative tolerance."""


class DimensionMismatch(AdiabatError):
    """Operands act on different Hilbert space dimensions."""


# --- spectral families ------------------------------------------------------

class DegeneracyChange(AdiabatError):
    """The number of distinct eigenspaces changed along the parameter."""


class AmbiguousClustering(AdiabatError):
    """Eigenspaces cannot be labelled: a gap in the clustering gray zone, or bad projectors."""


class FrameDiscontinuity(AdiabatError):
    """Adjacent transport-frame samples jump by more than the allowed norm."""


# --- resonance structure ----------------------------------------------------

class TangentialCrossing(AdiabatError):
    """Two gap functions touch with near-zero slope; the 0/1 classification
    of their coincidence is unreliable."""


# --- generators -------------------------------------------------------------

class BlockNotClosed(AdiabatError):
    """A requested block set omits a block coupled to it by the resonance
    tensor."""


class NegativeGSpectrum(AdiabatError):
    """The coupling matrix built from the resonance tensor has a negative
    eigenvalue; the Lindblad factorization does not exist."""


class GaugeSingularity(AdiabatError):
    """An instantaneous eigenbasis was requested where the chosen gauge is
    not defined."""


# --- propagation ------------------------------------------------------------

class InvalidInitialState(AdiabatError):
    """Initial operator is not a density operator within tolerance."""


class StepTooLarge(AdiabatError):
    """A single exponential step would exceed the stability budget."""


class EmptySubspace(AdiabatError):
    """A projected state has numerically zero weight in the subspace."""


class GridMismatch(AdiabatError):
    """Two trajectories do not share the same sample grid."""


# --- models -----------------------------------------------------------------

class BadSplit(AdiabatError):
    """Path segment fractions are negative or do not sum to one."""


# --- cli --------------------------------------------------------------------

class ConfigInvalid(AdiabatError):
    """An experiment configuration failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class AssertionFailed(AdiabatError):
    """A named embedded assertion of a preset run was violated."""

    def __init__(self, name, measured, bound):
        super().__init__(f"{name}: measured {measured!r} violates bound {bound!r}")
        self.name = name
        self.measured = measured
        self.bound = bound

    def __reduce__(self):
        # the default rebuilds from the message alone; a failure raised in a
        # sweep worker must come back through the pool intact
        return type(self), (self.name, self.measured, self.bound)
