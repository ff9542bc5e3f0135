"""Exception types raised by the cskfde package."""


class CskError(Exception):
    """Base class for all cskfde errors."""


class SingularTriad(CskError):
    """The three source chromaticities are collinear; the mixing matrix is singular."""


class OutsideGamut(CskError):
    """Target chromaticity falls outside the gamut spanned by the sources."""


class UnsupportedOrder(CskError):
    """Modulation order not supported for the requested scheme."""


class LengthMismatch(CskError):
    """Sequence length does not satisfy the operation contract."""


class InvalidPrefix(CskError):
    """Cyclic-prefix length exceeds the payload length."""


class IndexOutOfRange(CskError):
    """Constellation index outside the valid range."""


class InvalidParameter(CskError):
    """A numeric parameter violates its domain constraint."""


class DimensionMismatch(CskError):
    """Array dimensions inconsistent with the number of colour bands."""


class SingularMatrix(CskError):
    """Cross-talk matrix is not invertible."""


class SpectralNull(CskError):
    """Channel frequency response has a (near-)zero bin; zero forcing undefined."""


class InvalidLength(CskError):
    """Block length is not valid for the transform."""


class InvalidTarget(CskError):
    """Target bit error rate outside (0, 0.5)."""


class InvalidConfig(CskError):
    """Configuration file contents are malformed or inconsistent."""
