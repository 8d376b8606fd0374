from itertools import islice

import pytest

from qrc1 import check_adequacy, dump_model, signature
from qrc1.generate import GenBounds, generate_models, random_formula
import random

from conftest import random_signature

SIG = signature(["c", "d"], {"P": 1, "S": 2})
BOUNDS = GenBounds(max_worlds=4, max_domain=3)


def test_generated_models_are_adequate():
    for m in islice(generate_models(SIG, BOUNDS, seed=1), 400):
        assert check_adequacy(m.raw).ok


def test_constant_domain_family_shape():
    # even entries come from the constant-domain family
    stream = generate_models(SIG, BOUNDS, seed=2)
    for _ in range(50):
        m = next(stream)
        assert len(set(m.frame.domains)) == 1
        ident = tuple(range(m.frame.domains[0]))
        assert all(row == ident for block in m.frame.eta for row in block)
        next(stream)  # skip the tree-family entry


def test_tree_family_reaches_varying_domains_and_nontrivial_eta():
    stream = generate_models(SIG, BOUNDS, seed=3)
    varying = nontrivial = False
    for _ in range(200):
        next(stream)
        m = next(stream)
        if len(set(m.frame.domains)) > 1:
            varying = True
        for (w, u) in m.frame.rel:
            row = m.frame.eta[w][u]
            if m.frame.domains[w] == m.frame.domains[u] and row != tuple(
                range(m.frame.domains[w])
            ):
                nontrivial = True
    assert varying and nontrivial


def test_generation_is_deterministic_under_a_seed():
    a = [dump_model(m) for m in islice(generate_models(SIG, BOUNDS, seed=9), 40)]
    b = [dump_model(m) for m in islice(generate_models(SIG, BOUNDS, seed=9), 40)]
    assert a == b
    c = [dump_model(m) for m in islice(generate_models(SIG, BOUNDS, seed=10), 40)]
    assert a != c


def test_bounds_are_respected_and_validated():
    for m in islice(generate_models(SIG, GenBounds(2, 2), seed=4), 100):
        assert m.frame.worlds <= 2
        assert max(m.frame.domains) <= 2
    with pytest.raises(ValueError):
        GenBounds(0, 3)


def test_tightest_bounds_pin_the_single_world_frame():
    for m in islice(generate_models(SIG, GenBounds(1, 1), seed=6), 20):
        assert m.frame.worlds == 1
        assert m.frame.domains == (1,)
        assert m.frame.eta[0][0] == (0,)


def test_random_formula_depth_and_signature():
    from qrc1 import well_formed

    rng = random.Random(0)
    for _ in range(200):
        sig = random_signature(rng)
        phi = random_formula(rng, sig, (0, 1, 2), 4)
        assert well_formed(phi, sig)
