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


def test_render():
    assert ZERO_GROUP.render() == "0"
    assert Z.render() == "Z"
    assert cyclic(2).render() == "Z/2"
    assert AbGroup((0, 0, 2, 3)).render() == "Z + Z + Z/2 + Z/3"
    assert str(AbGroup((0, 5))) == "Z + Z/5"
