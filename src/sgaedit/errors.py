"""Exception hierarchy shared across the package.

The exit code is the error contract, and there is one class per exit
code: `cli.main` maps ConfigError to 2, NumericalError to 3, and every
other SgaError (ValidationError, ShapeError, InsufficientDataError) to 4.
A class beyond those exit-code classes exists only if some `except`
clause in the package catches it by name: `config.resolve` turns a
ShapeError into a ConfigError, and `cli` turns an InsufficientDataError
into one. Every `raise` in the package raises one of these classes.
`tests/test_errors.py` checks both rules.
"""


class SgaError(Exception):
    """Base class for all package errors."""


class ShapeError(SgaError):
    """Array shapes or divisibility constraints violated."""


class InsufficientDataError(SgaError):
    """Not enough distinct samples to fit the requested codebook."""


class ValidationError(SgaError):
    """An input failed a documented invariant: a token outside its table,
    a malformed decoder sequence, a parameter out of range, a grid that
    still holds MASK, a fully masked softmax row, or a malformed file."""


class ConfigError(SgaError):
    """Bad or inconsistent run configuration."""


class NumericalError(SgaError):
    """A computation produced non-finite values (logits or the training loss)."""
