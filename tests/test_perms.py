import numpy as np
import pytest
from hypothesis import given, strategies as st

from partialpi.errors import DegreeMismatch, ParseError
from partialpi.perms import Perm, _DTYPE, parse_cycles


def random_perm(draw_list):
    return Perm([i + 1 for i in draw_list])


perm_strategy = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(Perm)


def test_identity_and_images():
    e = Perm.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    p = Perm([2, 3, 1])
    assert p(1) == 2 and p(3) == 1
    assert p.images == (2, 3, 1)


def test_composition_is_left_to_right():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    # apply a then b: 1 -> 2 -> 3
    assert (a * b)(1) == 3


def test_bijection_required():
    with pytest.raises(ValueError):
        Perm([1, 1, 3])
    with pytest.raises(ValueError):
        Perm([1, 2, 4])


@pytest.mark.parametrize("images", [[0, 2, 2], [1, -1, 0], [3, 0, 1],
                                    [0, 1, 2, 3, 4, 4]])
def test_from_array_bijection_required(images):
    """A repeated image, a negative image or an image >= degree."""
    with pytest.raises(ValueError):
        Perm._from_array(np.array(images, dtype=_DTYPE))
    assert Perm._from_array(np.arange(len(images), dtype=_DTYPE)).is_identity()


@given(st.permutations(list(range(1, 7))))
def test_inverse_roundtrip(images):
    p = Perm(images)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))),
       st.permutations(list(range(1, 6))))
def test_associativity(a, b, c):
    pa, pb, pc = Perm(a), Perm(b), Perm(c)
    assert (pa * pb) * pc == pa * (pb * pc)


@given(st.permutations(list(range(1, 8))))
def test_cycle_string_roundtrip(images):
    p = Perm(images)
    assert parse_cycles(p.cycle_string(), 7) == p


def test_order_and_power():
    c = parse_cycles("(1 2 3 4)", 4)
    assert c.order() == 4
    assert (c ** 4).is_identity()
    assert c ** -1 == c.inverse()
    assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6


def test_conjugate():
    a = parse_cycles("(1 2)", 3)
    g = parse_cycles("(1 2 3)", 3)
    assert a.conjugate(g) == parse_cycles("(2 3)", 3)


def test_parse_cycles_grammar():
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("(1 2)(3 4)", 4) == parse_cycles("(1,2)(3,4)", 4)
    # juxtaposed non-disjoint cycles compose left to right
    assert parse_cycles("(1 2)(2 3)", 3)(1) == 3


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_cycles("(1 2", 4)
    with pytest.raises(ParseError):
        parse_cycles("(1 2))", 4)
    with pytest.raises(ParseError):
        parse_cycles("(1 1)", 4)
    with pytest.raises(DegreeMismatch):
        parse_cycles("(1 5)", 4)
    err = None
    try:
        parse_cycles("(1 2 3", 3, line=7)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 7 and "unclosed" in str(err)
