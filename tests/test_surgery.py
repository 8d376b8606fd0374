"""Model surgery: constant reinterpretation, cone restriction, and the
satisfaction lemmas connecting them to substitution."""

import random
from itertools import islice

import pytest

from qrc1 import (
    Assignment,
    Const,
    Var,
    assign_term,
    check_adequacy,
    cone_worlds,
    occurs_const,
    replace_interp,
    restrict_replace,
    restrict_to_cone,
    sat,
    signature,
    sub,
    validate_model,
)
from qrc1.generate import GenBounds, generate_models, random_formula
from qrc1.semantics import RawFrame, RawModel

from conftest import identity_eta, single_world_model

X, Y = 0, 1
PSIG = signature(["c", "d"], {"P": 1})
BOUNDS = GenBounds(max_worlds=4, max_domain=3)


def fan_model():
    """0 R 1 and 0 R 2 with varying domains; world 2 unrelated to 1."""
    eta = (
        ((0, 1), (1, 0), (0, 0)),
        ((0, 0), (0, 1), (0, 0)),
        ((0,), (0,), (0,)),
    )
    frame = RawFrame(3, frozenset({(0, 1), (0, 2)}), (2, 2, 1), eta)
    consts = ({"c": 1, "d": 0}, {"c": 0, "d": 1}, {"c": 0, "d": 0})
    preds = (
        {"P": frozenset({(0,)})},
        {"P": frozenset({(1,)})},
        {"P": frozenset()},
    )
    return RawModel(PSIG, frame, consts, preds)


def test_fan_model_is_adequate():
    assert check_adequacy(fan_model()).ok


# -- replace_interp ------------------------------------------------------


def test_replace_interp_sets_the_element_at_the_world():
    m = validate_model(fan_model())
    out = replace_interp(m, 0, "c", 0)
    # eta[0][0] is the identity on adequate models, so the value lands as-is
    assert out.const_interp[0]["c"] == 0
    assert out.const_interp[1]["c"] == m.frame.eta[0][1][0]
    assert out.const_interp[2]["c"] == m.frame.eta[0][2][0]


def test_replace_interp_leaves_other_constants_alone():
    m = validate_model(fan_model())
    out = replace_interp(m, 0, "c", 0)
    for w in range(3):
        assert out.const_interp[w]["d"] == m.const_interp[w]["d"]


def test_replace_interp_from_a_non_root_world_is_total_but_raw():
    m = validate_model(fan_model())
    out = replace_interp(m, 1, "c", 1)
    # world 2 is unrelated to 1: it still gets a value, through eta[1][2]
    assert out.const_interp[2]["c"] == m.frame.eta[1][2][1]
    assert isinstance(out, RawModel)


def test_replace_interp_validates_inputs():
    m = validate_model(fan_model())
    with pytest.raises(ValueError):
        replace_interp(m, 0, "zzz", 0)
    with pytest.raises(ValueError):
        replace_interp(m, 2, "c", 5)


# -- restrict_to_cone ------------------------------------------------------


def test_restrict_to_cone_of_a_leaf_is_a_single_world():
    out = restrict_to_cone(fan_model(), 2)
    assert out.frame.worlds == 1
    assert out.frame.rel == frozenset()
    assert out.frame.domains == (1,)


def test_restrict_to_cone_of_the_root_keeps_everything():
    m = fan_model()
    out = restrict_to_cone(m, 0)
    assert out == m


def test_restrict_to_cone_drops_unreachable_worlds():
    eta = identity_eta((1, 1, 1))
    frame = RawFrame(3, frozenset({(0, 1)}), (1, 1, 1), eta)
    raw = RawModel(PSIG, frame, ({"c": 0, "d": 0},) * 3, ({"P": frozenset()},) * 3)
    out = restrict_to_cone(raw, 0)
    assert out.frame.worlds == 2
    assert out.frame.rel == frozenset({(0, 1)})
    assert cone_worlds(raw, 0) == [0, 1]


def test_restrict_to_cone_reindexes_relation_and_eta():
    m = fan_model()
    out = restrict_to_cone(m, 1)  # keeps only world 1, renumbered to 0
    assert out.frame.worlds == 1
    assert out.frame.eta[0][0] == (0, 1)
    assert out.const_interp[0] == m.const_interp[1]


# -- restrict_replace -------------------------------------------------------


def test_restrict_replace_on_a_single_world_model():
    raw = single_world_model(PSIG, size=2)
    m = validate_model(raw)
    out = restrict_replace(m, 0, "c", 1)
    assert out.const_interp[0]["c"] == 1
    assert out.frame == raw.frame
    assert out.pred_interp == raw.pred_interp


def test_restrict_replace_restores_concordance_down_the_chain():
    m = validate_model(fan_model())
    out = restrict_replace(m, 0, "c", 0)
    for w, u in out.frame.rel:
        assert out.const_interp[u]["c"] == out.frame.eta[w][u][out.const_interp[w]["c"]]


def test_restrict_replace_always_revalidates():
    models = islice(generate_models(PSIG, BOUNDS, seed=5), 300)
    rng = random.Random(5)
    for m in models:
        w = rng.randrange(m.frame.worlds)
        d = rng.randrange(m.frame.domains[w])
        out = restrict_replace(m, w, "c", d)
        assert check_adequacy(out).ok


def test_restrict_replace_validates_only_a_model_not_yet_validated(monkeypatch):
    from qrc1 import semantics

    # c is discordant along 0R1; reinterpreting it at 0 would repair that,
    # so only checking the input shows that it was not adequate
    frame = RawFrame(2, frozenset({(0, 1)}), (2, 2), identity_eta((2, 2)))
    bad = RawModel(PSIG, frame, ({"c": 0, "d": 0}, {"c": 1, "d": 0}), ({}, {}))
    with pytest.raises(semantics.InadequateModelError):
        restrict_replace(bad, 0, "c", 0)

    checked = []
    check = semantics.check_adequacy
    monkeypatch.setattr(semantics, "check_adequacy", lambda m: checked.append(m) or check(m))
    raw = fan_model()
    m = validate_model(raw)
    for given, checks in ((m, 1), (raw, 2)):
        checked.clear()
        out = restrict_replace(given, 0, "c", 0)
        assert len(checked) == checks and out == restrict_replace(m, 0, "c", 0)


# -- the substitution-style lemmas -----------------------------------------


def _random_case(rng, require_const_free=None, depth=4):
    """A generated model with a world, assignment, and formula."""
    m = next(_random_case.models)
    w = rng.randrange(m.frame.worlds)
    size = m.frame.domains[w]
    while True:
        phi = random_formula(rng, PSIG, (X, Y), rng.randint(0, depth))
        if require_const_free is None or not occurs_const(require_const_free, phi):
            break
    g = Assignment(w, rng.randrange(size), {X: rng.randrange(size), Y: rng.randrange(size)})
    return m, w, g, phi


_random_case.models = generate_models(PSIG, BOUNDS, seed=23)


def test_substitution_formula_lemma():
    # satisfaction under an x-alternative assignment g~ with g~(x) = g(t)
    # coincides with satisfaction of the substituted formula under g
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        m, w, g, phi = _random_case(rng)
        t = Const("c") if rng.random() < 0.4 else Var(rng.choice((X, Y)))
        x = rng.choice((X, Y))
        from qrc1 import freefor

        if not freefor(phi, x, t):
            continue
        g_tilde = g.with_value(x, assign_term(m, g, t))
        assert sat(m, w, g_tilde, phi) == sat(m, w, g, sub(phi, x, t))
        checked += 1


def test_sat_replace_lemma():
    # reinterpreting a constant absent from chi as g(x) turns satisfaction
    # of chi into satisfaction of chi[x:=c], at the world of the surgery
    rng = random.Random(29)
    for _ in range(300):
        m, w, g, chi = _random_case(rng, require_const_free="c")
        x = rng.choice((X, Y))
        replaced = replace_interp(m, w, "c", g(x))
        assert sat(m, w, g, chi) == sat(replaced, w, g, sub(chi, x, Const("c")))


def test_sat_restrict_replace_lemma():
    rng = random.Random(31)
    for _ in range(300):
        m, w, g, phi = _random_case(rng, require_const_free="c")
        x = rng.choice((X, Y))
        out = restrict_replace(m, w, "c", g(x))
        new_w = cone_worlds(m, w).index(w)
        g2 = Assignment(new_w, g.default, dict(g.overrides))
        assert sat(m, w, g, phi) == sat(out, new_w, g2, sub(phi, x, Const("c")))


def test_cone_locality():
    # satisfaction at w only looks at w and its successors
    rng = random.Random(37)
    for _ in range(300):
        m, w, g, phi = _random_case(rng)
        restricted = restrict_to_cone(m, w)
        new_w = cone_worlds(m, w).index(w)
        g2 = Assignment(new_w, g.default, dict(g.overrides))
        assert sat(m, w, g, phi) == sat(restricted, new_w, g2, phi)
