import pytest

from effhom.abgroup import AbGroup, Z, ZERO_GROUP, cyclic


def test_validation():
    AbGroup((0, 0, 2, 4))
    with pytest.raises(ValueError):
        AbGroup((2, 0))       # free rank after torsion
    with pytest.raises(ValueError):
        AbGroup((1,))
    with pytest.raises(ValueError):
        AbGroup((-3,))


def test_rank_and_torsion():
    g = AbGroup((0, 0, 2, 6))
    assert g.rank == 2
    assert g.torsion == (2, 6)
    assert g.ngens == 4
    assert ZERO_GROUP.is_trivial()
    assert not Z.is_trivial()


def test_arithmetic_reduces_mod_torsion():
    g = AbGroup((0, 3))
    assert g.add((1, 2), (1, 2)) == (2, 1)
    assert g.scale(3, (2, 2)) == (6, 0)
    assert g.neg((5, 1)) == (-5, 2)
    assert g.is_zero((0, 3))
    with pytest.raises(ValueError):
        g.reduce((1,))


def generic_reduce(g, x):
    """The reduction formula with no fast path: each torsion entry mod m."""
    if len(x) != len(g.mm):
        raise ValueError("coefficient tuple has wrong length")
    return tuple(c if m == 0 else c % m for c, m in zip(x, g.mm))


@pytest.mark.parametrize("g", [ZERO_GROUP, Z, AbGroup((0, 0, 0)),
                               AbGroup((0, 3)), cyclic(12)],
                         ids=["0", "Z", "Z3", "Z+Z/3", "Z/12"])
def test_reduce_matches_the_generic_formula(g):
    xs = [tuple(v) for v in [(), (0,), (-7,), (5, -4), (13, -1, 0), (-2, 9, 4)]
          if len(v) == g.ngens]
    assert xs
    for x in xs:
        assert g.reduce(x) == generic_reduce(g, x)
        assert g.reduce(iter(x)) == generic_reduce(g, x)
    for n in {g.ngens + 1, abs(g.ngens - 1)} - {g.ngens}:
        with pytest.raises(ValueError, match="wrong length"):
            g.reduce((1,) * n)


def test_render():
    assert ZERO_GROUP.render() == "0"
    assert Z.render() == "Z"
    assert cyclic(2).render() == "Z/2"
    assert AbGroup((0, 0, 2, 3)).render() == "Z + Z + Z/2 + Z/3"
    assert str(AbGroup((0, 5))) == "Z + Z/5"
