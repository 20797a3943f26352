"""Exception types shared across the package, and the one check of each
misuse rule that several modules share. A refusal names its parameter first."""

import math


class TangencyLabError(Exception):
    """Base class for all package errors."""


class ConcentricError(TangencyLabError):
    """Two circles share a center, so no tangency point is defined."""


class NotNearTangentError(TangencyLabError):
    """A pair was passed to a tangency-rectangle construction but its gap is too large."""


class InvalidParamsError(TangencyLabError):
    """Input or parameters violate a precondition; the message starts with the
    parameter's name. The CLI exits 2 on any TangencyLabError, or an OSError on
    a path the user named, and 3 on any other exception: an internal error,
    to be reported as a bug."""


class EmptyFamilyError(TangencyLabError):
    """An operation needs at least two points (or one) and got fewer."""


class ValidationError(TangencyLabError):
    """An experiment precondition failed hard (as opposed to a flagged row)."""


class DegenerateSweepError(TangencyLabError):
    """A log-log fit was requested on a sweep with no spread in the abscissa."""


def check_positive(name: str, value) -> None:
    """Refuse nan, inf, 0 and below. Compares with inf, as math.isfinite
    overflows on the exact integers of any size that circle radii may be."""
    if not 0 < value < math.inf:
        raise InvalidParamsError(f"{name}: must be finite and positive")


def check_dilation(K, name: str = "K") -> None:
    """Refuse a dilation factor unless it is finite and at least 1."""
    if not 1 <= K < math.inf:
        raise InvalidParamsError(f"{name}: must be finite and >= 1")


def check_seed(seed) -> None:
    """Refuse a seed the random generator cannot take."""
    if not seed >= 0:
        raise InvalidParamsError("seed: must be a non-negative integer")


def parse_value(key: str, raw: str, convert=float):
    """convert(raw), refused as "<key>: malformed value '<raw>'" when it fails."""
    try:
        return convert(raw)
    except (ValueError, LookupError, OverflowError):
        raise InvalidParamsError(f"{key}: malformed value '{raw}'") from None


def text_lines(path):
    """The lines of the text file at `path`, read lazily; refused unless it decodes."""
    with open(path) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InvalidParamsError(f"{path}: not a text file ({exc})") from None
