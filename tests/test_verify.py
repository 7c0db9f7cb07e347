"""Brute-force reference: survivability checks and exhaustive optima."""

import pytest

from conftest import triangle
from cprsnp import verify
from cprsnp.formulations import Design
from cprsnp.graph import augment, max_flow
from cprsnp.verify import (
    VerifyError,
    exhaustive_optimum,
    is_survivable,
)


def tri_aug(k=1, kp=0):
    return augment(triangle(k, kp))


def test_is_survivable_frozen():
    aug = tri_aug(k=1, kp=0)
    ok, witness = is_survivable(aug, Design.canonical(aug, range(3)))
    assert ok and witness is None

    ok, witness = is_survivable(aug, Design.canonical(aug, [0, 2]))
    assert not ok and witness is not None
    # the witness really severs the demand
    value = max_flow(aug, Design.canonical(aug, [0, 2]).mask(aug, witness.arcs)).value
    assert value < aug.demand


def test_is_survivable_respects_protection():
    aug = tri_aug(k=1, kp=1)
    bare = Design.canonical(aug, [1])
    assert not is_survivable(aug, bare)[0]
    shielded = Design.canonical(aug, [1], [1])
    assert is_survivable(aug, shielded)[0]


def test_is_survivable_guards(monkeypatch):
    aug = tri_aug()
    with pytest.raises(VerifyError):
        is_survivable(aug, Design(frozenset({0}), frozenset()))
    monkeypatch.setattr(verify, "SCENARIO_GUARD", 1)
    with pytest.raises(VerifyError):
        is_survivable(aug, Design.canonical(aug, range(3)))


def test_exhaustive_optimum_frozen():
    cost, design = exhaustive_optimum(tri_aug(k=1, kp=0))
    assert cost == pytest.approx(4.0)
    assert design.selected == frozenset(range(4))

    cost, design = exhaustive_optimum(tri_aug(k=1, kp=1))
    assert cost == pytest.approx(2.0)
    assert design.selected == frozenset({1, 3})
    assert design.protected == frozenset({1})

    assert exhaustive_optimum(tri_aug(k=2, kp=0)) is None
    assert exhaustive_optimum(tri_aug(k=0, kp=0))[0] == pytest.approx(2.0)


def test_exhaustive_optimum_arc_limit(monkeypatch):
    monkeypatch.setattr(verify, "EXHAUSTIVE_ARC_LIMIT", 2)
    with pytest.raises(VerifyError):
        exhaustive_optimum(tri_aug())


def test_exhaustive_design_is_survivable():
    aug = tri_aug(k=1, kp=1)
    cost, design = exhaustive_optimum(aug)
    ok, _ = is_survivable(aug, design)
    assert ok
    assert design.cost(aug) == pytest.approx(cost)
