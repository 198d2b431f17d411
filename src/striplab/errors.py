"""Exception types shared across the package."""


class StripLabError(Exception):
    pass


# -- surface / mode construction

class EmptyWindow(StripLabError):
    """No lattice point in the requested spectral annulus."""


class OrderOutOfRange(StripLabError):
    pass


class ZeroEigenvalue(StripLabError):
    pass


# -- complex geodesics

class StepTooLarge(StripLabError):
    pass


class StartOffSection(StripLabError):
    pass


# -- orbital Fourier

class WindowTooShort(StripLabError):
    pass


class EmptySpectrum(StripLabError):
    pass


# -- continuation / growth

class GridTooCoarse(StripLabError):
    pass


class ContinuationOverflow(StripLabError):
    """e^{w |n tau|} in the continuation sum leaves float64."""


# -- zero finding

class BoundaryZero(StripLabError):
    pass


class RootsNotConverged(StripLabError):
    """Root iterates still moving after the sweep cap."""


# -- Wigner statistics

class VanishingRestriction(StripLabError):
    pass


class SupportLeak(StripLabError):
    pass


class OffShell(StripLabError):
    pass


# -- experiment harness

class ConfigInvalid(StripLabError):
    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class MissingData(StripLabError):
    pass
