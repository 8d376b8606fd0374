"""The paper's soundness theorem at small scope: every instance of the ten
primitive rules over small formulas is locally sound in every adequate
model with at most two worlds and two elements per world.

Local soundness: wherever an instance's conclusion fails at a world w
under an assignment g, some premise fails somewhere in the same model;
for ConstE, somewhere in ``restrict_replace(m, w, c, g(x))``, as in the
paper's proof.  An axiom's conclusion holds everywhere.  The kernel
itself makes each instance: its one-step function `_conclude` gives the
conclusion, or rejects the instance, from the rule's parameters and
premise sequents.

Truth is computed for all models at once.  Model i owns bits 8i to
8i + 7 of an int, one per point (w, g(x), g(y)) at bit 8i + 4w + 2g(x) +
g(y), so a formula over ``P/1``, ``c``, x and y denotes the int of the
points where it holds.  `test_point_sets_agree_with_sat` ties these sets
to `sat`.
"""

from collections import defaultdict
from itertools import combinations, product

from qrc1 import (
    All, And, Assignment, Const, Diam, Pred, RawFrame, RawModel, Sequent, TOP, Var,
    check_adequacy, restrict_replace, sat, signature,
)
from qrc1.calculus import (
    _RULES, CheckError, Derivation, _conclude, all_commute, all_instantiate, check,
    diam_over_all, generalize_constant, instantiate_consequent, rename_bound,
)
from qrc1.language import sub

SIG = signature(["c"], {"P": 1})
X, Y = 0, 1
C = Const("c")
TERMS = (Var(X), Var(Y), C)


def _formulas(n):
    """Every formula of size at most n over T, P(x), P(y) and P(c) with &,
    <>, A x and A y, where an atom and each connective count 1: the
    formulas of `small_formulas(n)` with a second variable."""
    by_size = [[], [TOP, Pred("P", (Var(X),)), Pred("P", (Var(Y),)), Pred("P", (C,))]]
    for k in range(2, n + 1):
        below = by_size[k - 1]
        by_size.append([Diam(f) for f in below] + [All(v, f) for v in (X, Y) for f in below] + [
            And(a, b) for i in range(1, k - 1) for a in by_size[i] for b in by_size[k - 1 - i]
        ])
    return [f for level in by_size for f in level]


SMALL = _formulas(2)  # 16
# AllIl's formula takes size 3 too: capturing the term changes truth only
# from there on, as for <> A y . P(x) with x := y
LARGER = _formulas(3)  # 68


def _adequate_models():
    """Every raw model over {c, P/1} with one or two worlds, one or two
    elements per world, a transitive relation (reflexive edges included),
    the identity eta on the diagonal and every eta along an edge (zeros
    elsewhere) that passes `check_adequacy`: 1,800 of 3,976."""
    out = []
    for n in (1, 2):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        rels = [frozenset(r) for k in range(len(pairs) + 1) for r in combinations(pairs, k)
                if all((a, c) in r for a, b in r for b2, c in r if b == b2)]
        for domains, rel in product(product((1, 2), repeat=n), rels):
            def rows(w, u):
                if w == u:
                    return [tuple(range(domains[w]))]
                if (w, u) in rel:
                    return list(product(range(domains[u]), repeat=domains[w]))
                return [(0,) * domains[w]]

            subsets = [[frozenset((e,) for e in range(d) if k >> e & 1) for k in range(1 << d)]
                       for d in domains]
            for etas in product(*(rows(w, u) for w, u in pairs)):
                frame = RawFrame(n, rel, domains, tuple(etas[w * n:(w + 1) * n] for w in range(n)))
                for cs, ps in product(product(*map(range, domains)), product(*subsets)):
                    raw = RawModel(SIG, frame, tuple({"c": c} for c in cs),
                                   tuple({"P": p} for p in ps))
                    if check_adequacy(raw).ok:
                        out.append(raw)
    return out


class _Points:
    """The points of a list of models (None for a block with no model) as
    bits of an int, laid out as the module docstring says."""

    def __init__(self, models):
        self.valid = self.one = self.low = 0
        self.atoms = dict.fromkeys(TERMS, 0)  # P(t) for each term t
        self.zero = {2: 0, 1: 0}  # by shift: where g(x), or g(y), is element 0
        steps = defaultdict(int)  # (t, s): the blocks where a diamond at t sees s
        for i, m in enumerate(models):
            if m is None:
                continue
            self.low |= 1 << 8 * i
            frame = m.frame
            for w in range(frame.worlds):
                size, preds, c = frame.domains[w], m.pred_interp[w]["P"], m.const_interp[w]["c"]
                for gx, gy in product(range(size), repeat=2):
                    t = 4 * w + 2 * gx + gy
                    bit = 1 << 8 * i + t
                    self.valid |= bit
                    self.one |= bit if size == 1 else 0
                    self.zero[2] |= bit if gx == 0 else 0
                    self.zero[1] |= bit if gy == 0 else 0
                    for term, value in zip(TERMS, (gx, gy, c)):
                        self.atoms[term] |= bit if (value,) in preds else 0
                    for u in frame.succ[w]:
                        row = frame.eta[w][u]
                        steps[t, 4 * u + 2 * row[gx] + row[gy]] |= 1 << 8 * i
        self.steps = list(steps.items())
        self.memo = {}

    def holds(self, phi):
        """The points where phi holds."""
        got = self.memo.get(phi)
        if got is None:
            got = self.memo[phi] = self._holds(phi)
        return got

    def _holds(self, phi):
        if isinstance(phi, Pred):
            return self.atoms[phi.args[0]]
        if isinstance(phi, And):
            return self.holds(phi.left) & self.holds(phi.right)
        if isinstance(phi, Diam):
            body, bits = self.holds(phi.body), 0
            for (t, s), blocks in self.steps:
                bits |= (body >> s & blocks) << t
            return bits
        if isinstance(phi, All):
            shift = 2 if phi.var == X else 1  # from the variable at element 0 to 1
            body = self.holds(phi.body)
            both = body & (body >> shift | self.one) & self.zero[shift]
            return (both | both << shift) & self.valid
        return self.valid  # Top

    def fails(self, seq):
        """The points where the sequent fails."""
        return self.holds(seq.ante) & ~self.holds(seq.cons)

    def models_where_it_fails(self, seq):
        """Bit 8i for each model i where the sequent fails at some point."""
        bits = self.fails(seq)
        bits |= bits >> 4
        bits |= bits >> 2
        bits |= bits >> 1
        return bits & self.low


def _instances():
    """Every instance of the ten primitive rules over the formulas above,
    as (rule, premise sequents, parameters): formulas from SMALL (AllIl's
    own formula and its premise's consequent from LARGER), variables x
    and y (x alone for ConstE), terms x, y and c, and one larger TermI
    instance."""
    for phi in LARGER:
        for rule in ("Top", "Refl", "Trans"):
            yield rule, (), (phi,), None, None, None
    for phi, psi in product(SMALL, repeat=2):
        yield "AndEl", (), (phi, psi), None, None, None
        yield "AndEr", (), (phi, psi), None, None, None
        yield "ConstE", (Sequent(sub(phi, X, C), sub(psi, X, C)),), (phi, psi), X, None, "c"
    for a, b, c in product(SMALL, repeat=3):
        yield "AndI", (Sequent(a, b), Sequent(a, c)), (), None, None, None
        yield "Cut", (Sequent(a, b), Sequent(b, c)), (), None, None, None
    for s in (Sequent(a, b) for a in SMALL for b in SMALL):
        yield "Nec", (s,), (), None, None, None
        for x in (X, Y):
            yield "AllIr", (s,), (), x, None, None
            for t in TERMS:
                yield "TermI", (s,), (), x, t, None
    # TermI's check on its antecedent first matters at larger sizes: with
    # y := x captured, A x . <> (P(x) & P(y)) would weaken to A x . <> P(x)
    px, py, pc = (Pred("P", (t,)) for t in TERMS)
    yield "TermI", (Sequent(All(X, Diam(And(px, py))), Diam(And(py, pc))),), (), Y, Var(X), None
    for phi, x, t, psi in product(LARGER, (X, Y), TERMS, LARGER):
        yield "AllIl", (Sequent(sub(phi, x, t), psi),), (phi,), x, t, None


def _model_bits(bits):
    """Bit i for each bit 8i of `bits`."""
    return int(format(bits, "b")[::-1][::8][::-1] or "0", 2)


def test_the_models_are_every_small_adequate_model():
    assert len(_adequate_models()) == 1800


def test_point_sets_agree_with_sat():
    models = _adequate_models()
    for step, formulas in ((1, SMALL), (15, LARGER)):
        chosen = models[::step]
        points = _Points(chosen)
        for phi in formulas:
            bits = points.holds(phi)
            for i, m in enumerate(chosen):
                for w in range(m.frame.worlds):
                    for gx, gy in product(range(m.frame.domains[w]), repeat=2):
                        g = Assignment(w, 0, {X: gx, Y: gy})
                        assert sat(m, w, g, phi) == bool(bits >> 8 * i + 4 * w + 2 * gx + gy & 1)


def test_every_rule_instance_is_locally_sound():
    models = _adequate_models()
    points = _Points(models)
    # ConstE: one block per point of `points`, holding the model that the
    # paper's proof reads there, restrict_replace(m, w, c, g(x))
    replaced = [None] * (8 * len(models))
    for i, m in enumerate(models):
        for w in range(m.frame.worlds):
            size = m.frame.domains[w]
            for gx in range(size):
                cone = restrict_replace(m, w, "c", gx)
                for gy in range(size):
                    replaced[8 * i + 4 * w + 2 * gx + gy] = cone
    replaced = _Points(replaced)
    counts = dict.fromkeys(_RULES, 0)
    for rule, premises, formulas, x, t, c in _instances():
        try:
            conclusion = _conclude(SIG.constants, rule, formulas, x, t, c, premises)
        except CheckError:
            continue
        counts[rule] += 1
        if rule == "ConstE":
            unsound = points.fails(conclusion) & ~_model_bits(
                replaced.models_where_it_fails(premises[0]))
        else:
            unsound = points.models_where_it_fails(conclusion)
            for p in premises:
                unsound &= ~points.models_where_it_fails(p)
        assert not unsound, (rule, premises, formulas, x, t, c, conclusion)
    assert all(counts.values()), counts


def _put(phi, old, new):
    """phi with each free occurrence of the term old replaced by new,
    written out here rather than taken from `qrc1.language`."""
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(new if a == old else a for a in phi.args))
    if isinstance(phi, And):
        return And(_put(phi.left, old, new), _put(phi.right, old, new))
    if isinstance(phi, Diam):
        return Diam(_put(phi.body, old, new))
    if isinstance(phi, All) and old != Var(phi.var):
        return All(phi.var, _put(phi.body, old, new))
    return phi


def _premises():
    """Derivations the kernel accepts, with their conclusions: the axiom
    instances of `_instances`, and each of its other one-step instances
    whose premises are all conclusions of those axiom instances, built
    on them: 716 and 1,329."""
    axioms, out = {}, []
    for rule, premises, formulas, x, t, c in _instances():
        if not premises:  # an axiom has no side condition
            d = Derivation(rule, formulas, x, t, c)
            out.append((d, check(d, SIG)))
            axioms.setdefault(out[-1][1], d)
    for rule, premises, formulas, x, t, c in _instances():
        if premises and all(p in axioms for p in premises):
            d = Derivation(rule, formulas, x, t, c, tuple(axioms[p] for p in premises))
            try:
                out.append((d, check(d, SIG)))
            except CheckError:
                continue
    return out


def _derived_instances():
    """Every call of the six derived builders over the formulas of SMALL,
    the variables x and y, the terms x, y and c and the premises of
    `_premises`, as (builder, arguments, the conclusion its docstring
    promises, the premise's conclusion or None): 256 calls without a
    premise, 12,270 of instantiate_consequent and 4,090 of
    generalize_constant."""
    for phi, x, y in product(SMALL, (X, Y), (X, Y)):
        yield all_commute, (phi, x, y), Sequent(All(x, All(y, phi)), All(y, All(x, phi))), None
        yield rename_bound, (phi, x, y), Sequent(
            All(x, phi), All(y, _put(phi, Var(x), Var(y)))), None
    for phi, x in product(SMALL, (X, Y)):
        yield diam_over_all, (phi, x), Sequent(Diam(All(x, phi)), All(x, Diam(phi))), None
        for t in TERMS:
            yield all_instantiate, (phi, x, t), Sequent(All(x, phi), _put(phi, Var(x), t)), None
    for d, s in _premises():
        for x in (X, Y):
            for t in TERMS:
                yield instantiate_consequent, (d, x, t), Sequent(
                    s.ante, _put(s.cons, Var(x), t)), s
            yield generalize_constant, (d, x, "c"), Sequent(
                s.ante, All(x, _put(s.cons, C, Var(x)))), s


def test_every_derived_rule_instance_is_checked_and_sound():
    # each call either refuses with ValueError or returns a derivation the
    # kernel accepts, proving the promised sequent; that sequent holds in
    # every model where the premise's conclusion does, and so at every
    # point when there is no premise
    points = _Points(_adequate_models())
    built = dict.fromkeys([all_commute, rename_bound, diam_over_all, all_instantiate,
                           instantiate_consequent, generalize_constant], 0)
    for builder, args, promised, premise in _derived_instances():
        try:
            d = builder(*args)
        except ValueError:
            continue
        built[builder] += 1
        assert check(d, SIG) == promised, (builder.__name__, args, promised)
        unsound = points.models_where_it_fails(promised)
        if premise is not None:
            unsound &= ~points.models_where_it_fails(premise)
        assert not unsound, (builder.__name__, promised, premise)
    # the calls that build a derivation; the others refuse
    assert {f.__name__: n for f, n in built.items()} == {
        "all_commute": 64, "rename_bound": 56, "diam_over_all": 32, "all_instantiate": 94,
        "instantiate_consequent": 9856, "generalize_constant": 1972}
