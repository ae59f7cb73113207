"""Permutations on {1..n} stored as dense image arrays.

Composition is left-to-right: ``(a * b)`` means "apply a, then b", so that
conjugation ``a ** g == g.inverse() * a * g`` matches the usual ``a^g``.
Points are 1-based in all public interfaces (cycle notation, ``images``);
the internal image array is 0-based.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DegreeMismatch, ParseError

_DTYPE = np.intp


class Perm:
    """An immutable permutation of {1..degree}."""

    __slots__ = ("_arr", "_key", "_hash")

    def __init__(self, images, degree=None):
        """Build from a 1-based image sequence, e.g. Perm([2, 3, 1])."""
        arr = np.asarray(images, dtype=_DTYPE) - 1
        self._init_from_zero_based(arr, degree)

    def _init_from_zero_based(self, arr, degree=None):
        if degree is not None and len(arr) != degree:
            raise ValueError(f"expected degree {degree}, got {len(arr)}")
        n = len(arr)
        if n and (arr.min() < 0 or arr.max() >= n
                  or np.count_nonzero(np.bincount(arr, minlength=n)) != n):
            raise ValueError("images are not a bijection on {1..degree}")
        arr = arr.astype(_DTYPE, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_key", arr.tobytes())
        object.__setattr__(self, "_hash", hash(self._key))

    @classmethod
    def _from_array(cls, arr) -> "Perm":
        p = cls.__new__(cls)
        p._init_from_zero_based(np.asarray(arr, dtype=_DTYPE))
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._from_array(np.arange(degree, dtype=_DTYPE))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Perm":
        """Build from 1-based disjoint-or-composed cycles, left-to-right.

        Non-disjoint cycles are composed in the order given.
        """
        result = np.arange(degree, dtype=_DTYPE)
        for cycle in cycles:
            step = np.arange(degree, dtype=_DTYPE)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not (1 <= a <= degree):
                    raise DegreeMismatch(f"point {a} outside degree {degree}")
                step[a - 1] = b - 1
            result = step[result]
        return cls._from_array(result)

    # -- basic protocol -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._arr)

    @property
    def images(self) -> tuple:
        """1-based image tuple; images[i-1] is the image of point i."""
        return tuple(int(x) + 1 for x in self._arr)

    @property
    def array(self) -> np.ndarray:
        """Read-only 0-based image array (internal representation)."""
        return self._arr

    def __call__(self, point: int) -> int:
        return int(self._arr[point - 1]) + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Perm._from_array(other._arr[self._arr])

    def inverse(self) -> "Perm":
        inv = np.empty_like(self._arr)
        inv[self._arr] = np.arange(self.degree, dtype=_DTYPE)
        return Perm._from_array(inv)

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, g: "Perm") -> "Perm":
        """self^g = g^{-1} * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return bool(np.all(self._arr == np.arange(self.degree, dtype=_DTYPE)))

    def cycles(self, include_fixed: bool = False) -> list:
        """Disjoint cycles as 1-based lists, each starting at its minimum."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur + 1)
                cur = int(self._arr[cur])
            if len(cyc) > 1 or include_fixed:
                out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def __repr__(self):
        return f"Perm[{self.cycle_string()}]"

    def __eq__(self, other):
        return isinstance(other, Perm) and self._key == other._key

    def __lt__(self, other):
        return self._arr.tolist() < other._arr.tolist()

    def __hash__(self):
        return self._hash


_CYCLE_TOKEN = re.compile(r"\s*(\(|\)|\d+|,)")


def parse_cycles(text: str, degree: int, line: int | None = None) -> Perm:
    """Parse cycle notation like ``(1 2 3)(4 5)`` into a Perm.

    Whitespace or commas separate points; fixed points may be omitted;
    ``()`` and the empty string denote the identity.
    """
    cycles = []
    pos = 0
    current = None
    text = text.strip()
    while pos < len(text):
        m = _CYCLE_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        tok = m.group(1)
        if tok == "(":
            if current is not None:
                raise ParseError("nested '('", line, pos + 1)
            current = []
        elif tok == ")":
            if current is None:
                raise ParseError("unmatched ')'", line, pos + 1)
            if current:
                cycles.append(current)
            current = None
        elif tok == ",":
            pass
        else:
            if current is None:
                raise ParseError("point outside cycle", line, pos + 1)
            point = int(tok)
            if not (1 <= point <= degree):
                raise DegreeMismatch(
                    f"point {point} outside degree {degree}", line, pos + 1)
            if point in current:
                raise ParseError(f"repeated point {point} in cycle", line, pos + 1)
            current.append(point)
        pos = m.end()
    if current is not None:
        raise ParseError("unclosed '('", line, len(text))
    return Perm.from_cycles(cycles, degree)
