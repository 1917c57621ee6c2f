"""Release gate.

One test per advertised guarantee, each with its time budget asserted and a
single PASS line printed on success (run with ``pytest -v`` to get the
per-criterion pass/fail verdicts, ``-s`` to see the timing lines).
"""

import itertools
import random
import time

from repsieve import (
    CheckerPolicy,
    FiniteStructure,
    TheorySpec,
    Workspace,
    build_layer_representation,
    build_sid,
    build_term_representation,
    check_by_partial_automorphisms,
    check_representation,
    delta_system,
    instability_probe,
    save_workspace,
    sieve,
    singleton_prefix,
    theory_oracle,
    trivial_enrichment,
    validate_enrichment,
    validate_sunflower,
    verify_indiscernible,
    witness_automorphism,
)
from repsieve.cli import run_command
from repsieve.finstruct import qf_closure, type_equal
from repsieve.represent import RepresentationMap
from repsieve.sunflower import SunflowerCertificate

from conftest import linear
from reference import all_extensions, exchange_law, transitivity_law, validate_trace

LEN3 = CheckerPolicy(max_tuple_len=3)


def catalog_specs():
    # pure sets start at 2: the layered construction names its parameters by
    # a pair of distinct elements, which a singleton universe cannot supply
    eq = [TheorySpec.make("eq_rel", classes=c, size=s) for c in (2, 3) for s in (2, 3)]
    nested = [TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2))]
    pure = [TheorySpec.make("pure_set", n=n) for n in range(2, 9)]
    return eq + nested + pure


_MODELS: dict = {}
_SID: dict = {}
_EX2: dict = {}
_EX1: dict = {}


def model_oracle(spec):
    if spec not in _MODELS:
        o = theory_oracle(spec)
        _MODELS[spec] = (o.model, o)
    return _MODELS[spec]


def decomposition(spec):
    if spec not in _SID:
        _SID[spec] = build_sid(model_oracle(spec)[1], mode="omega_stable")
    return _SID[spec]


def term_rep(spec):
    if spec not in _EX2:
        _EX2[spec] = build_term_representation(decomposition(spec), mode="copy_index")
    return _EX2[spec]


def layer_rep(spec):
    if spec not in _EX1:
        _EX1[spec] = build_layer_representation(singleton_prefix(decomposition(spec)))
    return _EX1[spec]


def literal_rep():
    spec = TheorySpec.make("eq_rel", classes=3, size=3)
    return build_term_representation(decomposition(spec), mode="literal")


def test_catalog_term_representations_check_clean():
    worst = 0.0
    pairs = 0
    for spec in catalog_specs():
        t0 = time.perf_counter()
        report = check_representation(term_rep(spec), LEN3)
        dt = time.perf_counter() - t0
        assert report.empty, (spec, report.entries[:3])
        assert dt < 30.0, (spec, dt)
        worst = max(worst, dt)
        pairs += report.checked
    print(
        f"PASS term-carrier catalog: {len(catalog_specs())} cases clean at "
        f"tuple length 3 ({pairs} pairs), worst case {worst:.2f}s of a 30s budget"
    )


def test_catalog_layer_representations_check_clean():
    worst = 0.0
    pairs = 0
    for spec in catalog_specs():
        t0 = time.perf_counter()
        r = layer_rep(spec)
        assert validate_enrichment(FiniteStructure.make(r.source.size), r.enrichment) == []
        report = check_representation(r, LEN3)
        dt = time.perf_counter() - t0
        assert report.empty, (spec, report.entries[:3])
        assert dt < 30.0, (spec, dt)
        worst = max(worst, dt)
        pairs += report.checked
    print(
        f"PASS layered catalog: {len(catalog_specs())} enrichments valid and clean "
        f"at tuple length 3 ({pairs} pairs), worst case {worst:.2f}s of a 30s budget"
    )


def test_literal_naming_collapses_on_extra_copies():
    r = literal_rep()
    report = check_representation(r, LEN3)
    assert not report.empty
    assert ((4, 5), (4, 4)) in report.entries
    assert r.f[4] == r.f[5]
    again = check_representation(literal_rep(), LEN3)
    assert again.entries == report.entries
    print(
        f"PASS literal collapse: {len(report.entries)} violations, pair "
        f"((4, 5), (4, 4)) present with both sources imaging to term {r.f[4]}, "
        f"rerun byte-identical"
    )


def test_sieve_extracts_indiscernibles_from_nine_classes():
    t0 = time.perf_counter()
    spec = TheorySpec.make("eq_rel", classes=9, size=2)
    r = build_term_representation(decomposition(spec), mode="copy_index")
    singles = [(2 * i,) for i in range(9)]
    trace = sieve(r, singles, target=9)
    assert len(trace.s3) >= 9, trace.survivor_counts()
    assert validate_trace(trace) == []
    for u, v in itertools.permutations(trace.s3, 2):
        pa = witness_automorphism(trace, (u,), (v,))
        assert pa.violations(r.target) == []
    assert verify_indiscernible(r.source, singles, trace.s3)
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    print(
        f"PASS sieve on nine classes: {len(trace.s3)} survivors, "
        f"{9 * 8} witnesses valid, set-indiscernible, "
        f"{dt:.2f}s of a 60s budget"
    )


def test_probe_refutes_identity_on_linear_orders(tmp_path):
    pairs = []
    for n in (4, 5):
        lin = linear(n)
        bare = FiniteStructure.make(n)
        enr = trivial_enrichment(bare)
        r = RepresentationMap.make(
            lin, enr.apply(bare), {i: i for i in range(n)}, enrichment=enr
        )
        report = instability_probe(r, "lt", [(i,) for i in range(n)])
        assert report.status == "representation_refuted"
        assert report.pair is not None
        pairs.append(report.pair)
        ws = Workspace()
        ws.add_representation("id", r)
        path = tmp_path / f"lin{n}.json"
        save_workspace(ws, path)
        chain = ",".join(str(i) for i in range(n))
        code = run_command(
            ["probe-instability", str(path), "--phi", "lt", "--chain", chain]
        )
        assert code == 1
    print(
        f"PASS ordered-chain probe: identity into the trivial enrichment refuted "
        f"on 4 and 5 points at pairs {pairs[0]} and {pairs[1]}, exit code 1"
    )


def test_random_families_always_pack_three_petals():
    # eight two-sets can pairwise dodge a shared core; nine cannot
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    for round_no in range(1000):
        family = set()
        while len(family) < 9:
            family.add(tuple(sorted(rng.sample(range(12), 2))))
        family = sorted(family)
        cert = delta_system(family, 3)
        assert isinstance(cert, SunflowerCertificate), (round_no, cert)
        assert len(cert.selected) >= 3
        assert validate_sunflower(family, cert) == [], round_no
    dt = time.perf_counter() - t0
    assert dt < 10.0, dt
    print(
        f"PASS seeded sunflower packing: 1000 families of nine 2-sets, "
        f"all certificates independently validated, {dt:.2f}s of a 10s budget"
    )


def test_orbit_and_game_type_oracles_agree():
    t0 = time.perf_counter()
    rng = random.Random(77)
    compared = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        edges = [p for p in itertools.product(range(n), repeat=2) if rng.random() < 0.5]
        s = FiniteStructure.make(n, relations={"R": (2, edges)})
        tuples = [(a,) for a in range(n)] + list(itertools.product(range(n), repeat=2))
        for t1, t2 in itertools.combinations(tuples, 2):
            if len(t1) != len(t2):
                continue
            compared += 1
            assert type_equal(s, t1, t2, "orbit") == type_equal(s, t1, t2, ("ef", 6)), (
                n, edges, t1, t2,
            )
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    print(
        f"PASS type-oracle agreement: orbit vs depth-6 game on {compared} "
        f"tuple pairs over 100 seeded structures, {dt:.2f}s of a 60s budget"
    )


def test_both_checkers_agree_on_all_built_representations():
    reps = [term_rep(spec) for spec in catalog_specs()]
    reps += [layer_rep(spec) for spec in catalog_specs()]
    reps.append(literal_rep())
    verdicts = {True: 0, False: 0}
    for r in reps:
        by_maps = check_by_partial_automorphisms(r, LEN3)
        direct = check_representation(r, LEN3)
        assert by_maps.empty == direct.empty, r.source
        verdicts[direct.empty] += 1
    print(
        f"PASS checker agreement: {len(reps)} representations "
        f"({verdicts[True]} clean, {verdicts[False]} violating), the map-based "
        f"and the direct checker reach the same verdict on every one"
    )


def test_checkers_agree_beyond_eight_element_closures():
    # nested (2,3,2) ex1 has image closures of 10 elements at length 3,
    # which a domain bound of 8 once refused as inconclusive
    r = layer_rep(TheorySpec.make("nested_eq_rel", sizes=(2, 3, 2)))
    images = sorted(set(r.f))
    biggest = max(
        len(qf_closure(r.target, combo))
        for k in range(1, LEN3.max_tuple_len + 1)
        for combo in itertools.combinations(images, k)
    )
    assert biggest == 10
    t0 = time.perf_counter()
    by_maps = check_by_partial_automorphisms(r, LEN3)
    direct = check_representation(r, LEN3)
    dt = time.perf_counter() - t0
    assert by_maps.empty and direct.empty
    assert dt < 30.0, dt
    print(
        f"PASS closures past 8 elements: nested (2,3,2) ex1 clean under both "
        f"checkers at tuple length 3 (closures up to {biggest} elements), "
        f"{dt:.2f}s of a 30s budget"
    )


def test_checkers_agree_on_a_larger_model():
    spec = TheorySpec.make("eq_rel", classes=4, size=3)
    r = term_rep(spec)
    t0 = time.perf_counter()
    by_maps = check_by_partial_automorphisms(r, LEN3)
    direct = check_representation(r, LEN3)
    dt = time.perf_counter() - t0
    assert by_maps.empty and direct.empty
    assert dt < 30.0, dt
    print(
        f"PASS larger-model agreement: eq 4x3 ex2 clean under both checkers at "
        f"tuple length 3 ({by_maps.checked} map-matched pairs), {dt:.2f}s of a 30s budget"
    )


def test_oracle_symmetry_and_invariance_laws():
    # exchange: a1 forks over B once a2 is added exactly when a2 forks over B
    # once a1 is added; transitivity: over B ⊆ C ⊆ D, forking over B is
    # forking over C or forking from C to B
    checked = 0
    for spec, exchanges, chains in (
        (TheorySpec.make("eq_rel", classes=3, size=3), 2088, 23_580),
        (TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2)), 1232, 14_312),
    ):
        _, o = model_oracle(spec)
        assert exchange_law(o) == (exchanges, [])
        assert transitivity_law(o) == (chains, [])
        checked += exchanges + chains

    spec = TheorySpec.make("eq_rel", classes=3, size=3)
    m, o = model_oracle(spec)
    autos = list(all_extensions(m, tuple(range(m.size))))
    assert len(autos) == 1296  # 3! class swaps times (3!)^3 within classes
    cases = [
        (0, frozenset(), frozenset()),
        (0, frozenset({1}), frozenset()),
        (0, frozenset({1, 3}), frozenset({3})),
        (4, frozenset({3, 5}), frozenset({3})),
        (3, frozenset({0, 6}), frozenset()),
        (7, frozenset({0, 8}), frozenset({8})),
    ]
    for g in autos:
        for a, big, small in cases:
            ga = g[a]
            gb = frozenset(g[x] for x in big)
            gs = frozenset(g[x] for x in small)
            assert o.forks(a, big, small) == o.forks(ga, gb, gs)
            assert len(o.base(a, big)) == len(o.base(ga, gb))
    print(
        f"PASS oracle laws: exchange symmetry and transitivity on {checked} cases "
        f"over two theories, invariance under all 1296 automorphisms"
    )
