"""Core value types: delay vectors, FDN realizations, and system matrices.

All types are immutable after construction (arrays are frozen with
``writeable = False``) so instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# largest max|U U^T - I| of a matrix taken as orthogonal
ORTHO_TOL = 1e-9


def orthogonality_residual(u):
    """max|U U^T - I| of a square matrix ``u``."""
    return float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))


def balance(x, w):
    """The diagonal similarity T^-1 X T with T = sqrt(diag(w))."""
    t = np.sqrt(w)
    return (x * t[None, :]) / t[:, None]


def _frozen_array(values, ndim=None, name="array"):
    """``values`` as a read-only float array; values that form no array of
    numbers, a non-finite entry, or a dimension other than ``ndim`` raise
    ValueError naming ``name``."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _delay_length(value):
    """``value`` as an int; a bool, or a value no int equals, raises ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"delay lengths must be integers, got {value!r}")


@dataclass(frozen=True)
class DelayVector:
    """Lengths, in samples, of the delay lines. Every entry must be an
    integer >= 1: an integral float such as 3.0 is taken as that integer,
    while a bool or a fractional value raises ValueError."""

    values: tuple

    def __init__(self, values):
        values = tuple(_delay_length(v) for v in np.asarray(values, dtype=object).ravel())
        if len(values) == 0:
            raise ValueError("delay vector must have at least one entry")
        if any(v < 1 for v in values):
            raise ValueError(f"delay lengths must be >= 1, got {values}")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def system_order(self) -> int:
        """Total number of delay registers, i.e. the degree of the
        characteristic polynomial."""
        return sum(self.values)

    def as_array(self):
        return np.array(self.values, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FdnSystem:
    """A feedback delay network: feedback matrix ``a`` (N x N), input gains
    ``b`` (N x P), output gains ``c`` (P x N), direct gains ``d`` (P x P) and
    the delay vector.

    Single-input single-output systems use P = 1; construct them with
    :meth:`siso` to avoid reshaping by hand.  Instances compare by identity
    (fields are arrays); use e.g. ``numpy.array_equal`` for value checks.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    delays: DelayVector

    def __init__(self, a, b, c, d, delays):
        a = _frozen_array(a, ndim=2, name="a")
        b = _frozen_array(b, ndim=2, name="b")
        c = _frozen_array(c, ndim=2, name="c")
        d = _frozen_array(d, ndim=2, name="d")
        if not isinstance(delays, DelayVector):
            delays = DelayVector(delays)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"feedback matrix must be square, got {a.shape}")
        p = b.shape[1]
        if b.shape != (n, p) or c.shape != (p, n) or d.shape != (p, p):
            raise ValueError(
                "inconsistent gain shapes: "
                f"a {a.shape}, b {b.shape}, c {c.shape}, d {d.shape}"
            )
        if len(delays) != n:
            raise ValueError(f"{len(delays)} delays for {n} delay lines")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delays", delays)

    @classmethod
    def siso(cls, a, b, c, d, delays) -> "FdnSystem":
        """Build a P = 1 system from an N-vector ``b``, N-vector ``c`` and a
        scalar ``d``."""
        b = np.asarray(b, dtype=float).reshape(-1, 1)
        c = np.asarray(c, dtype=float).reshape(1, -1)
        d = np.asarray(d, dtype=float).reshape(1, 1)
        return cls(a, b, c, d, delays)

    @property
    def n_delays(self) -> int:
        return self.a.shape[0]

    @property
    def n_io(self) -> int:
        return self.b.shape[1]

    @property
    def order(self) -> int:
        return self.delays.system_order

    @property
    def is_siso(self) -> bool:
        return self.n_io == 1

    def with_delays(self, delays) -> "FdnSystem":
        """Same gains, different delay lengths."""
        if not isinstance(delays, DelayVector):
            delays = DelayVector(delays)
        return dataclasses.replace(self, delays=delays)


@dataclass(frozen=True, eq=False)
class SystemMatrix:
    """The (N+P) x (N+P) block matrix [[A, B], [C, D]] with split point N."""

    u: np.ndarray
    split: int

    def __init__(self, u, split):
        u = _frozen_array(u, ndim=2, name="system matrix")
        s = u.shape[0]
        if u.shape != (s, s):
            raise ValueError(f"system matrix must be square, got {u.shape}")
        split = int(split)
        if not 1 <= split < s:
            raise ValueError(f"split point {split} out of range for size {s}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "split", split)

    @classmethod
    def from_blocks(cls, a, b, c, d) -> "SystemMatrix":
        """[[A, B], [C, D]] with split point N, each block taken at least
        2-D, written into one array; blocks whose rows or columns do not
        line up raise ValueError."""
        a, b, c, d = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (a, b, c, d))
        (n, k), (p, q) = a.shape[-2:], d.shape[-2:]
        if not (a.ndim == b.ndim == c.ndim == d.ndim == 2 and b.shape == (n, q) and c.shape == (p, k)):
            raise ValueError(f"inconsistent block shapes: a {a.shape}, b {b.shape}, c {c.shape}, d {d.shape}")
        u = np.empty((n + p, k + q))
        u[:n, :k], u[:n, k:], u[n:, :k], u[n:, k:] = a, b, c, d
        return cls(u, n)

    @classmethod
    def from_fdn(cls, fdn: FdnSystem) -> "SystemMatrix":
        return cls.from_blocks(fdn.a, fdn.b, fdn.c, fdn.d)

    @property
    def blocks(self):
        n = self.split
        return self.u[:n, :n], self.u[:n, n:], self.u[n:, :n], self.u[n:, n:]

    def to_fdn(self, delays) -> FdnSystem:
        a, b, c, d = self.blocks
        return FdnSystem(a, b, c, d, delays)
