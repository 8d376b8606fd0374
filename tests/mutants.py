"""Named mutants of the trusted base, each with the tests that kill it.

A mutant replaces one exact snippet of a file under ``src/qrc1/`` by a
replacement; the snippet must occur exactly once in ``src/``, which
``tests/test_mutants.py`` checks.  ``tests/run_mutants.py`` applies each
mutant of `MUTANTS` in a temporary copy of the repository and runs its
tests, which must fail.  A mutant in `EQUIVALENT` changes no behaviour,
for the reason it gives, so no test can kill it and none is run.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qrc1/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    reason: str = ""  # why an equivalent mutant changes nothing


_CALCULUS = "tests/test_calculus.py::"
_SEARCH = "tests/test_search.py::"
_LANGUAGE = "tests/test_language.py::"
_SMALL_SCOPE = "tests/test_small_scope_soundness.py::"
_RULE_SOUNDNESS = _SMALL_SCOPE + "test_every_rule_instance_is_locally_sound"
_DERIVED_SOUNDNESS = _SMALL_SCOPE + "test_every_derived_rule_instance_is_checked_and_sound"
_CERTIFICATES = "tests/test_certificates.py"
_KERNEL = "tests/test_kernel.py::"
_CLI = "tests/test_cli.py::"
_SEMANTICS = "tests/test_semantics.py::"
_AGREES = _KERNEL + "test_loader_and_kernel_agree_with_the_references"
_NOT_AN_OBJECT = _KERNEL + "test_a_mapping_that_is_not_a_dict_is_not_an_object"

MUTANTS = [
    # the kernel's side conditions (calculus._conclude)
    Mutant("all-ir-variable-free-in-antecedent", "calculus.py",
           "        if var in fv(prem[0].ante):\n",
           "        if False:\n",
           (_RULE_SOUNDNESS, _CALCULUS + "test_all_intro_right_requires_fresh_variable")),
    Mutant("all-il-free-for", "calculus.py",
           "        if not freefor(phi, var, term):\n",
           "        if False:\n",
           (_RULE_SOUNDNESS, _CALCULUS + "test_all_intro_left_rejects_captured_term")),
    Mutant("term-inst-free-for-in-antecedent", "calculus.py",
           "        if not freefor(prem[0].ante, var, term):\n",
           "        if False:\n",
           (_RULE_SOUNDNESS,)),
    Mutant("term-inst-free-for-in-consequent", "calculus.py",
           "        if not freefor(prem[0].cons, var, term):\n",
           "        if False:\n",
           (_CALCULUS + "test_term_inst_rejects_capture_in_the_consequent_alone", _RULE_SOUNDNESS)),
    Mutant("term-inst-free-for-in-neither", "calculus.py",
           "        if not freefor(prem[0].ante, var, term):\n"
           "            raise CheckError(\n"
           "                (), rule, NOT_FREE_FOR,"
           " \"term not free for the variable in the antecedent\"\n"
           "            )\n"
           "        if not freefor(prem[0].cons, var, term):\n",
           "        if False:\n",
           (_RULE_SOUNDNESS,)),
    Mutant("const-e-constant-in-consequent", "calculus.py",
           "    if occurs_const(const, psi):\n",
           "    if False:\n",
           (_CALCULUS + "test_const_elim_rejects_a_constant_in_the_consequent", _RULE_SOUNDNESS)),
    Mutant("const-e-constant-anywhere", "calculus.py",
           "    if occurs_const(const, phi):\n"
           "        raise CheckError((), rule, CONST_OCCURS,"
           " \"constant occurs in the antecedent\")\n"
           "    if occurs_const(const, psi):\n",
           "    if False:\n",
           (_RULE_SOUNDNESS,)),
    # the parameters of a node (calculus._check_parameters, Derivation)
    Mutant("check-parameters-term", "calculus.py",
           "    if node.term is not None and not well_formed_term(node.term, sig):\n",
           "    if False:\n",
           (_CALCULUS + "test_term_inst_rejects_an_undeclared_constant_term",)),
    Mutant("derivation-variable-parameter", "calculus.py",
           "        if (\"var\" in extras) != (self.var is not None):\n",
           "        if False:\n",
           (_CALCULUS + "test_derivation_parameters_enforced_at_construction",)),
    Mutant("derivation-term-parameter", "calculus.py",
           "        if (\"term\" in extras) != (self.term is not None):\n",
           "        if False:\n",
           (_CALCULUS + "test_derivation_parameters_enforced_at_construction",)),
    Mutant("derivation-constant-parameter", "calculus.py",
           "        if (\"const\" in extras) != (self.const is not None):\n",
           "        if False:\n",
           (_CALCULUS + "test_derivation_parameters_enforced_at_construction",)),
    Mutant("const-e-undeclared-constant", "calculus.py",
           "    if constants is not None and const not in constants:\n",
           "    if False:\n",
           (_KERNEL + "test_a_constant_name_loads_and_an_undeclared_one_is_ill_formed",)),
    # the one walk over a derivation (calculus._walk)
    Mutant("walk-visits-every-occurrence", "calculus.py",
           "elif id(node) in seen:",
           "elif False:",
           (_KERNEL + "test_every_walk_over_a_derivation_visits_each_distinct_node_once",
            _KERNEL + "test_a_shared_node_is_concluded_once")),
    # the type tests of the proof-file reader, in its fast path (calculus._Loader.load)
    # and where a node the fast path did not read is read again (calculus._Loader.node)
    Mutant("reader-fast-path-node-type", "calculus.py",
           "read = (type(obj) is dict and",
           "read = (True and",
           (_NOT_AN_OBJECT,)),
    Mutant("reader-fast-path-params-type", "calculus.py",
           "and type(params) is dict and",
           "and True and",
           (_NOT_AN_OBJECT, _AGREES)),
    Mutant("reader-fast-path-premises-type", "calculus.py",
           "type(raw) is list",
           "True",
           (_AGREES,)),
    Mutant("reader-fast-path-constant-name", "calculus.py",
           "(not has_c or syntax.is_name(const))",
           "True",
           (_AGREES,)),
    Mutant("reader-node-type", "calculus.py",
           "        if not isinstance(obj, dict):\n",
           "        if False:\n",
           (_NOT_AN_OBJECT, _AGREES)),
    Mutant("reader-params-type", "calculus.py",
           "        if not isinstance(params, dict):\n",
           "        if False:\n",
           (_NOT_AN_OBJECT, _AGREES)),
    Mutant("reader-premises-type", "calculus.py",
           "        if not isinstance(raw_premises, list):\n",
           "        if False:\n",
           (_AGREES,)),
    Mutant("reader-constant-name", "calculus.py",
           "            if not syntax.is_name(const):\n",
           "            if False:\n",
           (_KERNEL + "test_the_constant_parameter_must_be_a_constant_name", _AGREES)),
    # the guards of the derived rules (calculus)
    Mutant("all-instantiate-free-for", "calculus.py",
           "    if not freefor(phi, x, t):\n"
           "        raise ValueError(\"term is not free for the variable in the formula\")\n",
           "",
           (_DERIVED_SOUNDNESS,)),
    Mutant("rename-bound-target-free", "calculus.py",
           "y != x and y in fv(phi)",
           "y != x and False",
           (_DERIVED_SOUNDNESS,)),
    Mutant("instantiate-consequent-variable-free-in-antecedent", "calculus.py",
           "    if x in fv(seq.ante):\n"
           "        raise ValueError(\"variable occurs free in the antecedent\")\n"
           "    if not freefor(seq.cons, x, t):\n",
           "    if not freefor(seq.cons, x, t):\n",
           (_DERIVED_SOUNDNESS,)),
    Mutant("generalize-constant-in-antecedent", "calculus.py",
           "    if occurs_const(c, seq.ante):\n",
           "    if False:\n",
           (_DERIVED_SOUNDNESS,)),
    # what a formula stores about itself (language._facts)
    Mutant("facts-quantifier-keeps-its-variable-free", "language.py",
           "facts = (free - {x} or _EMPTY if x in free else free,",
           "facts = (free,",
           (_LANGUAGE + "test_fv_binder_removes_its_variable",)),
    Mutant("facts-and-takes-the-left-constants", "language.py",
           "facts = tuple(map(_union, left, right))",
           "facts = (*map(_union, left[:2], right[:2]), left[2])",
           (_LANGUAGE + "test_fv_and_freefor_keep_no_formula_alive",)),
    Mutant("facts-atom-drops-its-last-argument", "language.py",
           "{a.id for a in phi.args if type(a) is Var}",
           "{a.id for a in phi.args[:-1] if type(a) is Var}",
           (_LANGUAGE + "test_fv_union_over_subformulas",)),
    # a checked model's interpretations (semantics.validate_model)
    Mutant("validate-model-skips-the-interpretations", "semantics.py",
           "    _validate_interps(raw)\n    report = check_adequacy(raw)\n",
           "    report = check_adequacy(raw)\n",
           (_SEMANTICS + "test_validate_model_rejects_an_ill_formed_interpretation",)),
    # the re-verification of a countermodel (search._verify_refutation)
    Mutant("verify-refutation-irreflexive", "search.py",
           "    if any(a == b for (a, b) in frame.rel):\n",
           "    if False:\n",
           (_SEARCH + "test_verify_refutation_rejects_a_bad_witness",)),
    Mutant("verify-refutation-constant-domain", "search.py",
           "    if len(set(frame.domains)) != 1:\n",
           "    if False:\n",
           (_SEARCH + "test_verify_refutation_rejects_a_bad_witness",)),
    Mutant("verify-refutation-identity-eta", "search.py",
           "    if any(row != ident for block in frame.eta for row in block):\n",
           "    if False:\n",
           (_SEARCH + "test_verify_refutation_rejects_a_bad_witness",)),
    Mutant("verify-refutation-sequent-fails", "search.py",
           "    if not (_sat(model, w, g, seq.ante) and not _sat(model, w, g, seq.cons)):\n",
           "    if False:\n",
           (_SEARCH + "test_verify_refutation_rejects_a_bad_witness",)),
    # search: the steps of decide, and the trees' valuations
    Mutant("refutation-skips-the-tree-check", "search.py",
           "    if cleared and _no_countermodel(seq, bounds.max_domain, stop_at):\n",
           "    if False:\n",
           (_SEARCH + "test_decide_runs_the_tree_to_its_verdict_when_the_depths_run_out",)),
    Mutant("proof-search-ignores-its-deadline", "search.py",
           "    try:\n"
           "        return _proofs(seq, sig, bounds, _stop_at(bounds))\n"
           "    except _Deadline:\n"
           "        return None\n",
           "    return _proofs(seq, sig, bounds, _stop_at(bounds))\n",
           (_SEARCH + "test_proof_search_gives_up_at_its_deadline",)),
    Mutant("reserved-constant-may-name-a-predicate", "search.py",
           "| self.sig.constants | self.sig.predicates.keys()",
           "| self.sig.constants",
           (_SEARCH + "test_proof_search_reserves_no_name_the_signature_declares_as_a_predicate",
            _CLI + "test_decide_proves_with_a_reserved_constant_apart_from_the_predicates")),
    Mutant("one-apart-uses-a-second-element", "search.py",
           "    if d > 1:\n",
           "    if True:\n",
           (_SEARCH + "test_one_apart_keeps_to_the_element_of_a_one_element_domain",)),
    # what a certificate prints (cli, semantics.dump_model)
    Mutant("certificate-names-the-next-world", "cli.py",
           "\"world\": world,",
           "\"world\": world + 1,",
           (_CERTIFICATES,)),
    Mutant("dump-model-drops-an-edge", "semantics.py",
           "\"rel\": [list(p) for p in sorted(raw.frame.rel)],",
           "\"rel\": [list(p) for p in sorted(raw.frame.rel)][1:],",
           (_CERTIFICATES,)),
]

EQUIVALENT = [
    Mutant("const-e-asserts-its-parameters", "calculus.py",
           "    assert var is not None and const is not None\n",
           "",
           (),
           "_conclude's callers always pass a ConstE node's variable and constant: _check "
           "the fields of a Derivation, which refuses a ConstE node without them, and "
           "check_proof's reader those it requires of every ConstE node in the file"),
]
