"""Exception hierarchy shared across the package."""

from pathlib import Path


class SentfolioError(Exception):
    """Base class for all package errors."""


class ParseError(SentfolioError):
    """Malformed input file; message names the offending line."""


class ValidationError(SentfolioError):
    """Data violates a domain invariant (duplicate dates, bad prices, ...)."""


class InsufficientDataError(SentfolioError):
    """Not enough rows/observations for the requested operation."""


class ConfigurationError(SentfolioError):
    """A configuration value produces an unusable setup (e.g. empty split)."""


class AlignmentError(SentfolioError):
    """Series could not be joined on a common date axis."""


class DegenerateInputError(SentfolioError):
    """Zero-variance or otherwise degenerate statistical input."""


class SingularDesignError(SentfolioError):
    """Regressor matrix is rank deficient."""


class DimensionError(SentfolioError):
    """Array shape does not match the model configuration."""


class DivergenceError(SentfolioError):
    """Training produced a non-finite loss."""


class DegenerateMarketError(SentfolioError):
    """All sampled portfolios have (near-)zero volatility."""


def undecodable(path) -> ParseError:
    """The ParseError for a file that is not UTF-8, naming the line of its
    first bad byte.  A text stream decodes in chunks, so its
    UnicodeDecodeError does not locate the byte; the file is read again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}:{line}: not UTF-8 ({exc.reason} 0x{data[exc.start]:02x})")
    return ParseError(f"{path}: not UTF-8")
