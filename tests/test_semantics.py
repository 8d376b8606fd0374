import random
from itertools import product
from types import MappingProxyType

import pytest

from qrc1 import (
    All,
    And,
    Assignment,
    Const,
    Diam,
    Pred,
    RawFrame,
    RawModel,
    TOP,
    Var,
    assign_term,
    assignment,
    check_adequacy,
    eta_compose,
    fv,
    sat,
    signature,
    validate_model,
    xaltern_support,
    xeq,
)
from qrc1.generate import GenBounds, generate_models, random_formula
from qrc1.semantics import InadequateModelError, ModelFormatError

from conftest import (
    check_adequacy_reference,
    identity_eta,
    sat_alt,
    sat_reference,
    single_world_model,
    two_world_chain,
    xaltern,
)

X, Y = 0, 1
PSIG = signature(["c"], {"P": 1})


def P(t):
    return Pred("P", (t,))


def chain3(perturb_eta02=None):
    """Adequate 3-world chain 0R1R2 plus 0R2, two elements per world.

    eta[0][2] is the composition of the edge maps; passing perturb_eta02
    replaces it to break composition on purpose.
    """
    e01 = (1, 0)
    e12 = (0, 1)
    e02 = tuple(e12[v] for v in e01)  # (1, 0): the unique path composition
    active02 = perturb_eta02 if perturb_eta02 is not None else e02
    ident = (0, 1)
    back = (0, 0)  # unrelated directions only need to be total
    eta = (
        (ident, e01, active02),
        (back, ident, e12),
        (back, back, ident),
    )
    frame = RawFrame(3, frozenset({(0, 1), (1, 2), (0, 2)}), (2, 2, 2), eta)
    consts = ({"c": 0}, {"c": e01[0]}, {"c": active02[0]})
    preds = tuple({"P": frozenset({(0,)})} for _ in range(3))
    return RawModel(PSIG, frame, consts, preds)


# -- adequacy ------------------------------------------------------------


def test_single_world_model_is_adequate():
    report = check_adequacy(single_world_model())
    assert report.ok


def test_non_identity_eta_on_a_world_is_reported():
    frame = RawFrame(
        2,
        frozenset({(0, 1)}),
        (2, 2),
        (
            ((1, 0), (0, 1)),  # eta[0][0] is a swap, not the identity
            ((0, 0), (0, 1)),
        ),
    )
    raw = RawModel(PSIG, frame, ({"c": 0}, {"c": 0}), ({}, {}))
    report = check_adequacy(raw)
    assert report.eta_identity_witness == (0, 0)


def test_broken_eta_composition_is_witnessed():
    good = chain3()
    assert check_adequacy(good).ok

    # brute-force perturbation of a valid model: flip eta[0][2]
    bad = chain3(perturb_eta02=(0, 0))
    report = check_adequacy(bad)
    assert report.eta_functorial_witness == (0, 1, 2, 0)


def test_missing_transitive_edge_is_witnessed():
    frame = RawFrame(3, frozenset({(0, 1), (1, 2)}), (1, 1, 1), identity_eta((1, 1, 1)))
    raw = RawModel(PSIG, frame, ({"c": 0},) * 3, ({},) * 3)
    report = check_adequacy(raw)
    assert report.transitive_witness == (0, 1, 2)


def test_discordant_constant_is_witnessed():
    frame = RawFrame(2, frozenset({(0, 1)}), (2, 2), identity_eta((2, 2)))
    raw = RawModel(PSIG, frame, ({"c": 0}, {"c": 1}), ({}, {}))
    report = check_adequacy(raw)
    assert report.concordant_witness == (0, 1, "c")


def test_validate_model_raises_on_failure():
    frame = RawFrame(3, frozenset({(0, 1), (1, 2)}), (1, 1, 1), identity_eta((1, 1, 1)))
    raw = RawModel(PSIG, frame, ({"c": 0},) * 3, ({},) * 3)
    with pytest.raises(InadequateModelError):
        validate_model(raw)


@pytest.mark.parametrize("const_interp, pred_interp, message", [
    (({}, {"c": 0}), ({}, {}), "world 0: constant 'c' uninterpreted"),
    (({"c": 0}, {"c": 5}), ({}, {}), "world 1: constant 'c' outside the domain"),
    (({"c": 0}, {"c": 0}), ({"P": frozenset({(7,)})}, {}),
     "world 0: tuple outside the domain for predicate 'P'"),
], ids=["missing-constant", "constant-outside-the-domain", "tuple-outside-the-domain"])
def test_validate_model_rejects_an_ill_formed_interpretation(const_interp, pred_interp, message):
    # checked before adequacy: a missing constant would otherwise raise a
    # KeyError, a constant outside its domain read as a concordance failure,
    # and the tuple outside the domain come back as a Model
    frame = RawFrame(2, frozenset({(0, 1)}), (1, 1), identity_eta((1, 1)))
    with pytest.raises(ModelFormatError) as info:
        validate_model(RawModel(PSIG, frame, const_interp, pred_interp))
    assert str(info.value) == message


def test_a_validated_model_is_the_raw_model_it_checked():
    from qrc1 import Model

    raw = chain3()
    m = validate_model(raw)
    assert isinstance(m, Model) and isinstance(m, RawModel)
    assert m.__match_args__ == raw.__match_args__
    assert all(getattr(m, f) is getattr(raw, f) for f in raw.__match_args__)
    assert type(m.raw) is RawModel and m.raw == raw
    # == is by exact type, so a Model never equals the raw model it checked
    assert m != raw and m == validate_model(raw)
    with pytest.raises(InadequateModelError):
        validate_model(chain3(perturb_eta02=(0, 0)))


def _perturbed(raw, rng):
    """`raw` with one to six random edits: an edge toggled, an eta entry
    re-pointed, or a constant moved within its world's domain."""
    frame, n = raw.frame, raw.frame.worlds
    rel = set(frame.rel)
    eta = [[list(row) for row in block] for block in frame.eta]
    consts = [dict(ci) for ci in raw.const_interp]
    for _ in range(rng.randint(1, 6)):
        w = rng.randrange(n)
        u = rng.choice((w, rng.randrange(n)))  # eta[w][w] as often as all others
        kind = rng.randrange(3)
        if kind == 0:
            rel ^= {(w, u)}
        elif kind == 1 and frame.domains[w]:
            eta[w][u][rng.randrange(frame.domains[w])] = rng.randrange(frame.domains[u])
        elif kind == 2 and raw.sig.constants:
            consts[w][rng.choice(sorted(raw.sig.constants))] = rng.randrange(frame.domains[w])
    eta_t = tuple(tuple(tuple(row) for row in block) for block in eta)
    frame = RawFrame(n, frozenset(rel), frame.domains, eta_t)
    return RawModel(raw.sig, frame, tuple(consts), raw.pred_interp)


def test_check_adequacy_agrees_with_the_reference_loops():
    from itertools import islice

    rng = random.Random(9)
    sig = signature(["c", "d"], {"P": 1})
    failed = [0, 0, 0, 0]
    for m in islice(generate_models(sig, GenBounds(4, 3), seed=9), 1000):
        for raw in (m.raw, _perturbed(m.raw, rng)):
            reference = check_adequacy_reference(raw)
            report = check_adequacy(raw)
            got = [(good, witness) for _, good, witness in report.checks]
            assert got == list(zip(reference[:4], reference[4:]))
            assert report.ok == all(reference[:4])
            failed = [n + (not good) for n, (good, _) in zip(failed, got)]
    assert all(failed), failed


# -- assignments and term values ------------------------------------------


def test_assign_term_override_default_and_constant():
    raw = single_world_model(PSIG, size=3)
    g = Assignment(0, 1, {X: 2})
    assert assign_term(raw, g, Var(X)) == 2
    assert assign_term(raw, g, Var(Y)) == 1
    assert assign_term(raw, g, Const("c")) == 0


def test_assign_term_rejects_undeclared_constant():
    raw = single_world_model(PSIG, size=1)
    with pytest.raises(ValueError):
        assign_term(raw, Assignment(0, 0, {}), Const("zzz"))


def test_assignment_factory_validates():
    raw = single_world_model(PSIG, size=2)
    g = assignment(raw, 0, 1, {X: 0})
    assert g(X) == 0 and g(Y) == 1
    with pytest.raises(ValueError):
        assignment(raw, 0, 2)
    with pytest.raises(ValueError):
        assignment(raw, 5, 0)
    with pytest.raises(ValueError):
        assignment(raw, 0, 0, {X: 9})


def test_eta_compose_is_identity_on_the_same_world():
    model = validate_model(chain3())
    g = Assignment(0, 1, {X: 0, Y: 1})
    h = eta_compose(model, 0, 0, g)
    for v in (X, Y, 5):
        assert h(v) == g(v)


def test_eta_compose_constant_map():
    frame = RawFrame(2, frozenset(), (2, 3), (((0, 1), (2, 2)), ((0, 0, 0), (0, 1, 2))))
    raw = RawModel(signature(), frame, ({}, {}), ({}, {}))
    h = eta_compose(raw, 0, 1, Assignment(0, 0, {X: 1}))
    assert h.default == 2 and h(X) == 2 and h.world == 1


def test_eta_compose_agrees_with_path_composition():
    model = validate_model(chain3())
    g = Assignment(0, 0, {X: 1, Y: 0})
    via_u = eta_compose(model, 1, 2, eta_compose(model, 0, 1, g))
    direct = eta_compose(model, 0, 2, g)
    for v in range(6):  # enumerated variables 0..5
        assert via_u(v) == direct(v)


# -- assignment comparisons ------------------------------------------------


def test_xeq_on_empty_set_is_true():
    g, h = Assignment(0, 0, {}), Assignment(0, 1, {})
    assert xeq(g, h, frozenset())


def test_xeq_on_agreeing_free_variables():
    phi = P(Var(X))
    g = Assignment(0, 0, {X: 1, Y: 0})
    h = Assignment(0, 1, {X: 1})
    assert xeq(g, h, fv(phi))
    assert not xeq(g, h, {X, Y})


def test_xaltern_probe_behaviour():
    g = Assignment(0, 0, {X: 1})
    h = Assignment(0, 0, {X: 2})
    probe = {X, Y, 2}
    assert xaltern(g, g, {X}, probe)
    assert xaltern(g, h, {X}, probe)
    assert not xaltern(g, h, set(), probe)
    k = Assignment(0, 0, {Y: 1})
    assert not xaltern(g, k, {X}, probe)


def test_xaltern_support_compares_defaults():
    g = Assignment(0, 0, {X: 1})
    h = Assignment(0, 1, {X: 1})
    assert not xaltern_support(g, h, {X})
    h2 = Assignment(0, 0, {X: 2, Y: 0})
    assert xaltern_support(g, h2, {X})
    assert not xaltern_support(g, h2, set())


# -- satisfaction -----------------------------------------------------------


def test_top_always_holds():
    raw = single_world_model(PSIG, size=2)
    assert sat(raw, 0, Assignment(0, 1, {}), TOP)


def test_diamond_fails_without_successor():
    raw = single_world_model(PSIG)
    assert not sat(raw, 0, Assignment(0, 0, {}), Diam(TOP))


def test_two_world_chain_diamond_depth():
    # hand evaluation: 0 R 1, P true of the unique element at world 1 only;
    # <> P(x) holds at 0 through world 1, <> <> P(x) needs a second step
    # that does not exist since world 1 has no successor
    raw = two_world_chain(PSIG, {"P": frozenset({(0,)})})
    g = Assignment(0, 0, {})
    assert sat(raw, 0, g, Diam(P(Var(X))))
    assert not sat(raw, 0, g, Diam(Diam(P(Var(X)))))


def test_predicate_membership_and_conjunction():
    raw = single_world_model(PSIG, size=2, preds={"P": frozenset({(1,)})})
    g = Assignment(0, 0, {X: 1})
    assert sat(raw, 0, g, P(Var(X)))
    assert not sat(raw, 0, g, P(Var(Y)))
    assert sat(raw, 0, g, And(P(Var(X)), TOP))
    assert not sat(raw, 0, g, And(P(Var(X)), P(Var(Y))))


def test_universal_enumerates_the_domain():
    raw = single_world_model(PSIG, size=2, preds={"P": frozenset({(0,), (1,)})})
    assert sat(raw, 0, Assignment(0, 0, {}), All(X, P(Var(X))))
    raw2 = single_world_model(PSIG, size=2, preds={"P": frozenset({(0,)})})
    assert not sat(raw2, 0, Assignment(0, 0, {}), All(X, P(Var(X))))


def test_diamond_composes_assignments_through_eta():
    # domains grow 1 -> 2 and eta sends the unique element to 1;
    # P holds only of 1 at world 1, so <> P(x) holds at 0 although the
    # override still names element 0 of world 0
    frame = RawFrame(2, frozenset({(0, 1)}), (1, 2), (((0,), (1,)), ((0, 0), (0, 1))))
    raw = RawModel(
        PSIG,
        frame,
        ({"c": 0}, {"c": 1}),
        ({"P": frozenset()}, {"P": frozenset({(1,)})}),
    )
    assert check_adequacy(raw).ok
    assert sat(raw, 0, Assignment(0, 0, {X: 0}), Diam(P(Var(X))))


# -- model files -----------------------------------------------------------


def test_model_json_round_trip():
    from qrc1 import dump_model, load_model
    from qrc1.generate import GenBounds, generate_models
    from itertools import islice

    for m in islice(generate_models(PSIG, GenBounds(3, 3), seed=13), 30):
        doc = dump_model(m)
        assert load_model(doc) == m.raw
        assert dump_model(load_model(doc)) == doc


def test_load_model_rejects_malformed_documents():
    from qrc1 import ModelFormatError, load_model

    with pytest.raises(ModelFormatError):
        load_model("{ nope")
    with pytest.raises(ModelFormatError):
        load_model({"worlds": 1})
    base = {
        "signature": {"constants": [], "predicates": {"P": 1}},
        "worlds": 1,
        "rel": [],
        "domains": [1],
        "eta": [[[0]]],
        "constInterp": [{}],
        "predInterp": [{"P": [[0]]}],
    }
    bad_eta = dict(base, eta=[[[5]]])
    with pytest.raises(ModelFormatError):
        load_model(bad_eta)
    bad_tuple = dict(base, predInterp=[{"P": [[0, 0]]}])
    with pytest.raises(ModelFormatError):
        load_model(bad_tuple)
    undeclared = dict(base, predInterp=[{"Q": []}])
    with pytest.raises(ModelFormatError):
        load_model(undeclared)


# -- quantifier clause equivalence (domain enumeration vs alternatives) ------


def _exhaustive_models():
    yield single_world_model(PSIG, size=1, preds={"P": frozenset({(0,)})})
    yield single_world_model(PSIG, size=3, preds={"P": frozenset({(0,), (2,)})})
    yield two_world_chain(PSIG, {"P": frozenset({(0,)})})
    frame = RawFrame(2, frozenset({(0, 1)}), (2, 3), (((0, 1), (2, 0)), ((0, 0, 0), (0, 1, 2))))
    yield RawModel(
        PSIG,
        frame,
        ({"c": 1}, {"c": 0}),
        ({"P": frozenset({(1,)})}, {"P": frozenset({(0,), (2,)})}),
    )


def _formula_pool():
    atoms = [TOP, P(Var(X)), P(Var(Y)), P(Const("c"))]
    pool = list(atoms)
    for a in atoms:
        pool.append(Diam(a))
        pool.append(All(X, a))
        pool.append(All(Y, a))
    for a in atoms[:3]:
        for b in atoms[1:]:
            pool.append(And(a, b))
    extra = [
        All(X, Diam(P(Var(X)))),
        All(X, All(Y, And(P(Var(X)), P(Var(Y))))),
        Diam(All(X, P(Var(X)))),
        All(X, And(Diam(P(Var(X))), P(Var(Y)))),
    ]
    return pool + extra


def test_quantifier_clause_matches_alternative_assignment_clause():
    pool = (X, Y)
    for raw in _exhaustive_models():
        for phi in _formula_pool():
            for w in range(raw.frame.worlds):
                size = raw.frame.domains[w]
                for default in range(size):
                    for values in product(range(size), repeat=2):
                        g = Assignment(w, default, dict(zip(pool, values)))
                        assert sat(raw, w, g, phi) == sat_alt(raw, w, g, phi, pool), (
                            raw,
                            w,
                            g,
                            phi,
                        )


# -- agreement with the reference evaluator ------------------------------


SSIG = signature(["c"], {"P": 1, "S": 2})


def _assignments_over_xy(w, size):
    """Every default, with x and with y each overridden by every element
    or left to the default."""
    for default in range(size):
        for vx in (None, *range(size)):
            for vy in (None, *range(size)):
                pairs = ((X, vx), (Y, vy))
                yield Assignment(w, default, {v: d for v, d in pairs if d is not None})


def _assert_agrees_with_reference(raw, formulas):
    for phi in formulas:
        for w in range(raw.frame.worlds):
            for g in _assignments_over_xy(w, raw.frame.domains[w]):
                assert sat(raw, w, g, phi) == sat_reference(raw, w, g, phi), (raw, w, g, phi)


def test_sat_agrees_with_reference_on_generated_models():
    rng = random.Random(3)
    models = generate_models(SSIG, GenBounds(3, 3), seed=17)
    varying = nontrivial = False
    for _ in range(80):
        raw = next(models).raw
        frame = raw.frame
        varying |= len(set(frame.domains)) > 1
        nontrivial |= any(
            frame.eta[w][u] != tuple(range(frame.domains[w])) for (w, u) in frame.rel
        )
        formulas = [random_formula(rng, SSIG, (X, Y), rng.randint(0, 3)) for _ in range(10)]
        _assert_agrees_with_reference(raw, formulas)
    assert varying and nontrivial


def _inadequate_models():
    """Raw models over SSIG that fail adequacy: varying domains and
    non-identity eta rows, a broken composition, a swapping eta[0][0]."""
    swap, ident2 = (1, 0), (0, 1)
    frames = [
        # 0R1R2 without 0R2, varying domains, non-identity eta along edges
        RawFrame(
            3, frozenset({(0, 1), (1, 2)}), (2, 3, 2),
            ((ident2, (2, 0), (1, 1)), ((0, 0, 1), (0, 1, 2), (1, 0, 1)), ((1, 1), (2, 2), ident2)),
        ),
        # transitive, but eta[0][2] is not eta[1][2] after eta[0][1]
        RawFrame(
            3, frozenset({(0, 1), (1, 2), (0, 2)}), (2, 2, 2),
            ((ident2, swap, (0, 0)), ((0, 0), ident2, ident2), ((0, 0), (0, 0), ident2)),
        ),
        # eta[0][0] swaps, and a cycle through world 1 and back
        RawFrame(
            2, frozenset({(0, 1), (1, 0), (1, 1)}), (2, 2),
            ((swap, ident2), (swap, (1, 1))),
        ),
    ]
    for frame in frames:
        n = frame.worlds
        consts = tuple({"c": w % frame.domains[w]} for w in range(n))
        preds = tuple(
            {
                "P": frozenset({(w % frame.domains[w],)}),
                "S": frozenset(
                    (a, b) for a in range(frame.domains[w]) for b in range(frame.domains[w])
                    if (a + b + w) % 2
                ),
            }
            for w in range(n)
        )
        raw = RawModel(SSIG, frame, consts, preds)
        assert not check_adequacy(raw).ok
        yield raw


def test_sat_agrees_with_reference_on_inadequate_models():
    rng = random.Random(4)
    pool = _formula_pool() + [All(X, Diam(Pred("S", (Var(X), Var(Y)))))]
    for raw in _inadequate_models():
        formulas = pool + [random_formula(rng, SSIG, (X, Y), 3) for _ in range(20)]
        _assert_agrees_with_reference(raw, formulas)


def _identity_rows_model():
    """Adequate, with domains 2, 3, 2, 3 and edges 0 -> 1 -> 3, 0 -> 2 -> 3
    and 0 -> 3.  eta is the identity along 0 -> 1 (into a larger domain),
    1 -> 3 and 0 -> 3, and swaps along 0 -> 2 and 2 -> 3, so both paths
    to world 3 compose to the identity."""
    ident2, ident3 = (0, 1), (0, 1, 2)
    eta = (
        (ident2, ident2, (1, 0), ident2),
        ((0, 0, 1), ident3, (1, 1, 0), ident3),
        ((1, 0), (2, 0), ident2, (1, 0)),
        ((0, 0, 0), ident3, (0, 1, 1), ident3),
    )
    frame = RawFrame(4, frozenset({(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)}), (2, 3, 2, 3), eta)
    consts = ({"c": 0}, {"c": 0}, {"c": 1}, {"c": 0})
    preds = (
        {"P": frozenset({(1,)}), "S": frozenset({(0, 1)})},
        {"P": frozenset({(2,)}), "S": frozenset({(1, 0), (2, 2)})},
        {"P": frozenset({(1,)}), "S": frozenset({(1, 0)})},
        {"P": frozenset({(2,), (0,)}), "S": frozenset({(0, 2), (2, 1)})},
    )
    return RawModel(SSIG, frame, consts, preds)


def test_identity_rows_pass_the_assignment_through():
    raw = _identity_rows_model()
    assert check_adequacy(raw).ok
    assert raw.frame.steps == (
        ((1, None), (2, (1, 0)), (3, None)), ((3, None),), ((3, (1, 0)),), (),
    )
    rng = random.Random(6)
    s = Pred("S", (Var(X), Var(Y)))
    formulas = _formula_pool() + [
        Diam(Diam(P(Var(X)))), Diam(s), Diam(Diam(s)), All(X, Diam(s)), Diam(All(Y, s)),
        Diam(And(P(Var(Y)), Diam(Pred("S", (Var(Y), Const("c")))))),
    ] + [random_formula(rng, SSIG, (X, Y), 3) for _ in range(40)]
    _assert_agrees_with_reference(raw, formulas)
    # the test has teeth: reading a swap as the identity changes an answer
    wrong = _identity_rows_model()
    object.__setattr__(
        wrong.frame, "steps", (((1, None), (2, None), (3, None)), *raw.frame.steps[1:]))
    assert any(
        sat(wrong, w, g, phi) != sat_reference(raw, w, g, phi)
        for phi in formulas
        for w in range(raw.frame.worlds)
        for g in _assignments_over_xy(w, raw.frame.domains[w])
    )


# -- quantifiers: bound in place, vacuous ones evaluated once ----------------


Z = 2


def _quantifier_pool():
    """Vacuous, shadowed and nested quantifiers over x, y and z, and
    variables read again after a quantifier over them returned."""
    x, y, z, c = Var(X), Var(Y), Var(Z), Const("c")

    def s(a, b):
        return Pred("S", (a, b))

    return [
        All(X, All(Y, P(c))),  # two vacuous quantifiers
        All(Y, Diam(All(Y, Diam(P(y))))),  # vacuous over a shadowing one
        All(X, All(X, And(P(y), P(x)))),  # shadowed
        All(Z, s(x, y)),  # vacuous over free variables
        All(X, Diam(All(Y, s(x, y)))),
        All(X, All(Y, All(Z, And(s(x, z), s(z, y))))),
        And(All(X, P(x)), P(x)),
        And(All(Z, s(z, x)), s(z, z)),
        Diam(And(All(Y, s(x, y)), P(y))),
        All(X, Diam(And(All(X, s(x, y)), P(x)))),
        All(Z, Diam(All(X, And(Diam(s(x, z)), P(z))))),
        All(X, All(Y, Diam(Diam(P(c))))),
    ]


def _assert_agrees_on_three_variables(raw, formulas):
    """`sat` against the reference on every world and every assignment
    of x, y and z (each overridden by every element, or left to the
    default), and the caller's overrides as they were after each call."""
    for phi in formulas:
        for w in range(raw.frame.worlds):
            size = raw.frame.domains[w]
            for default, *values in product(range(size), *[(None, *range(size))] * 3):
                g = Assignment(w, default, {
                    v: d for v, d in zip((X, Y, Z), values) if d is not None})
                before = list(g.overrides.items())
                assert sat(raw, w, g, phi) == sat_reference(raw, w, g, phi), (raw, w, g, phi)
                assert list(g.overrides.items()) == before


def test_sat_agrees_with_reference_on_every_assignment_of_three_variables():
    rng = random.Random(9)
    models = generate_models(SSIG, GenBounds(3, 3), seed=19)
    varying = False
    for _ in range(12):
        raw = next(models).raw
        varying |= len(set(raw.frame.domains)) > 1
        formulas = _quantifier_pool() + [
            random_formula(rng, SSIG, (X, Y, Z), 3) for _ in range(6)]
        _assert_agrees_on_three_variables(raw, formulas)
    assert varying
    for raw in [*_inadequate_models(), _identity_rows_model()]:
        formulas = _quantifier_pool() + [
            random_formula(rng, SSIG, (X, Y, Z), 3) for _ in range(6)]
        _assert_agrees_on_three_variables(raw, formulas)


def test_sat_leaves_the_assignment_unchanged_when_it_raises():
    # k is not declared: the atom raises after x is bound, in place,
    # beyond an identity row
    raw = _identity_rows_model()
    k = Pred("S", (Var(X), Const("k")))
    g = Assignment(0, 1, {X: 0, Z: 1})
    for phi in (All(X, And(k, P(Var(X)))), Diam(All(Y, All(X, And(TOP, k))))):
        with pytest.raises(ValueError, match="^undeclared constant 'k'$"):
            sat(raw, 0, g, phi)
        assert list(g.overrides.items()) == [(X, 0), (Z, 1)]
    # overrides may be any mapping, a read-only one too
    frozen = Assignment(0, 1, MappingProxyType({X: 0}))
    phi = And(All(X, Diam(P(Var(X)))), P(Var(X)))
    assert sat(raw, 0, frozen, phi) == sat_reference(raw, 0, frozen, phi)


def test_a_vacuous_quantifier_evaluates_its_body_once(monkeypatch):
    from qrc1 import semantics

    raw = single_world_model(PSIG, size=3, preds={"P": frozenset({(0,), (1,), (2,)})})
    atoms = 0
    holds = semantics._holds

    def counting(raw, w, default, env, phi):
        nonlocal atoms
        atoms += type(phi) is Pred
        return holds(raw, w, default, env, phi)

    monkeypatch.setattr(semantics, "_holds", counting)
    g = Assignment(0, 0, {Y: 1})
    for phi, evaluated in (
        (All(X, All(X, P(Var(X)))), 3),  # the outer x is not free: its body once
        (All(X, All(Y, P(Var(Y)))), 3),
        (All(X, All(Y, All(X, P(Const("c"))))), 1),
        (All(X, P(Var(X))), 3),
    ):
        atoms = 0
        assert sat(raw, 0, g, phi) and sat_reference(raw, 0, g, phi)
        assert atoms == evaluated, phi


def test_a_vacuous_quantifier_over_an_empty_domain_is_true():
    # no eta row reaches an empty domain from a nonempty one, so only a
    # world like this, with an assignment made by hand, has one
    sig = signature([], {"R": 0})
    raw = RawModel(sig, RawFrame(1, frozenset(), (0,), (((),),)), ({},), ({"R": frozenset()},))
    g = Assignment(0, 0)
    assert sat(raw, 0, g, All(X, TOP)) and sat(raw, 0, g, All(X, Pred("R", ())))
    assert not sat(raw, 0, g, Pred("R", ()))
    assert sat_reference(raw, 0, g, All(X, Pred("R", ())))


# -- assignment-irrelevance lemmas (randomized smoke; acceptance runs more) --


def test_satisfaction_depends_only_on_free_variables():
    rng = random.Random(7)
    models = generate_models(PSIG, GenBounds(3, 3), seed=11)
    for _ in range(200):
        m = next(models)
        phi = random_formula(rng, PSIG, (X, Y), rng.randint(0, 3))
        w = rng.randrange(m.frame.worlds)
        size = m.frame.domains[w]
        free = fv(phi)
        g = Assignment(w, rng.randrange(size), {v: rng.randrange(size) for v in (X, Y)})
        # h agrees with g on fv(phi) but is otherwise arbitrary
        h = Assignment(
            w,
            g.default if not free else rng.randrange(size),
            {v: (g(v) if v in free else rng.randrange(size)) for v in (X, Y, 3)},
        )
        if not xeq(g, h, free):
            continue
        assert sat(m, w, g, phi) == sat(m, w, h, phi)
