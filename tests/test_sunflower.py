import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repsieve import (
    DeltaSystemFailure,
    SunflowerCertificate,
    delta_system,
    validate_sunflower,
)
from repsieve import sunflower
from repsieve.sunflower import _equiv_partition


class TestDeltaSystem:
    def test_common_first_value(self):
        cert = delta_system([(1, 2), (1, 3), (1, 4)], target=3)
        assert isinstance(cert, SunflowerCertificate)
        assert cert.selected == (0, 1, 2)
        assert cert.root == frozenset({1})
        assert cert.common_length == 2
        assert cert.agree_idx == frozenset({0})
        assert cert.rep_equiv == ((0,), (1,))
        assert validate_sunflower([(1, 2), (1, 3), (1, 4)], cert) == []

    def test_repetition_pattern(self):
        fam = [(1, 1, 2), (1, 1, 3)]
        cert = delta_system(fam, target=2)
        assert cert.rep_equiv == ((0, 1), (2,))
        assert cert.agree_idx == frozenset({0, 1})
        assert cert.root == frozenset({1})
        assert validate_sunflower(fam, cert) == []

    def test_identical_sequences_allowed(self):
        fam = [(5, 6), (5, 6)]
        cert = delta_system(fam, target=2)
        assert cert.selected == (0, 1)
        assert cert.root == frozenset({5, 6})
        assert cert.agree_idx == frozenset({0, 1})
        assert validate_sunflower(fam, cert) == []

    def test_disjoint_family(self):
        fam = [(1, 2), (3, 4), (5, 6)]
        cert = delta_system(fam, target=3)
        assert cert.root == frozenset()
        assert cert.agree_idx == frozenset()
        assert validate_sunflower(fam, cert) == []

    def test_misaligned_shared_values_cannot_pair(self):
        res = delta_system([(1, 2), (2, 1)], target=2)
        assert isinstance(res, DeltaSystemFailure)
        assert not res.inconclusive

    def test_lengths_are_separated(self):
        fam = [(1,), (1, 2), (1, 3)]
        cert = delta_system(fam, target=2)
        assert cert.selected == (1, 2)
        assert cert.common_length == 2

    def test_target_too_large_fails_with_reason(self):
        res = delta_system([(1, 2), (3, 4)], target=3)
        assert isinstance(res, DeltaSystemFailure)
        assert "3" in res.reason

    def test_input_validation(self):
        with pytest.raises(ValueError):
            delta_system([], target=2)
        with pytest.raises(ValueError):
            delta_system([(1,)], target=1)

    def test_exact_packing_beats_greedy(self):
        # greedy takes the first sequence, whose petal blocks both others;
        # the exhaustive packer must find the compatible pair instead
        fam = [(9, 1, 2), (9, 1, 4), (9, 2, 5)]
        cert = delta_system(fam, target=2)
        assert isinstance(cert, SunflowerCertificate)
        assert validate_sunflower(fam, cert) == []

    def test_greedy_mode_flags_inconclusive(self, monkeypatch):
        monkeypatch.setattr(sunflower, "EXHAUSTIVE_THRESHOLD", 1)
        fam = [(9, 1, 2), (9, 1, 4), (9, 2, 5)]
        res = delta_system(fam, target=3)
        assert isinstance(res, DeltaSystemFailure)
        assert res.inconclusive

    def test_spent_node_budget_flags_inconclusive(self, monkeypatch):
        monkeypatch.setattr(sunflower, "EXACT_PACK_NODES", 2)
        fam = [(9, 1, 2), (9, 1, 4), (9, 2, 5)]
        res = delta_system(fam, target=3)
        assert isinstance(res, DeltaSystemFailure)
        assert res.inconclusive

    def test_same_failure_is_definitive_when_exhaustive(self):
        fam = [(9, 1, 2), (9, 1, 4), (9, 2, 5)]
        res = delta_system(fam, target=3)
        assert isinstance(res, DeltaSystemFailure)
        assert not res.inconclusive

    def test_deterministic(self):
        fam = [(1, 2), (1, 3), (2, 3), (1, 4), (5, 6)]
        assert delta_system(fam, target=2) == delta_system(fam, target=2)


class TestValidator:
    def test_rejects_wrong_root(self):
        fam = [(1, 2), (1, 3)]
        cert = delta_system(fam, target=2)
        bad = SunflowerCertificate(
            cert.selected, frozenset({2}), cert.common_length, cert.agree_idx,
            cert.rep_equiv, cert.mode,
        )
        assert validate_sunflower(fam, bad)

    def test_rejects_wrong_agree_idx(self):
        fam = [(1, 2), (1, 3)]
        cert = delta_system(fam, target=2)
        bad = SunflowerCertificate(
            cert.selected, cert.root, cert.common_length, frozenset({0, 1}),
            cert.rep_equiv, cert.mode,
        )
        assert any("agreement" in p for p in validate_sunflower(fam, bad))

    def test_rejects_wrong_partition(self):
        fam = [(1, 2), (1, 3)]
        cert = delta_system(fam, target=2)
        bad = SunflowerCertificate(
            cert.selected, cert.root, cert.common_length, cert.agree_idx,
            ((0, 1),), cert.mode,
        )
        assert validate_sunflower(fam, bad)

    def test_long_sequences_validate_in_linear_time(self):
        rng = random.Random(0)
        fam = [tuple(rng.sample(range(10**9), 8000)) for _ in range(2)]
        cert = delta_system(fam, target=2)
        t0 = time.perf_counter()
        assert validate_sunflower(fam, cert) == []
        assert time.perf_counter() - t0 < 1.0
        merged = ((0, 1),) + cert.rep_equiv[2:]
        bad = SunflowerCertificate(
            cert.selected, cert.root, cert.common_length, cert.agree_idx, merged, cert.mode,
        )
        assert validate_sunflower(fam, bad) == [
            f"sequence {cert.selected[0]}: the positions holding {fam[0][0]!r} are not "
            "a class of the repetition partition"
        ]

    def test_rejects_out_of_range_index(self):
        fam = [(1, 2), (1, 3)]
        cert = delta_system(fam, target=2)
        bad = SunflowerCertificate(
            (0, 5), cert.root, cert.common_length, cert.agree_idx,
            cert.rep_equiv, cert.mode,
        )
        assert validate_sunflower(fam, bad)


def brute_force_has_certificate(fam, target):
    """Ground truth by trying every subset of the requested size."""
    for sel in itertools.combinations(range(len(fam)), target):
        lengths = {len(fam[i]) for i in sel}
        if len(lengths) != 1:
            continue
        (length,) = lengths
        equivs = {_equiv_partition(fam[i]) for i in sel}
        if len(equivs) != 1:
            continue
        roots = {
            frozenset(fam[a]) & frozenset(fam[b])
            for a, b in itertools.combinations(sel, 2)
        }
        if len(roots) != 1:
            continue
        (root,) = roots
        agree = frozenset(
            p for p in range(length) if len({fam[i][p] for i in sel}) == 1
        )
        cert = SunflowerCertificate(
            tuple(sel), root, length, agree, next(iter(equivs)), "exhaustive"
        )
        if validate_sunflower(fam, cert) == []:
            return True
    return False


@st.composite
def small_families(draw):
    n = draw(st.integers(2, 6))
    return [
        tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=3)))
        for _ in range(n)
    ]


@given(small_families(), st.integers(2, 4))
@settings(max_examples=120, deadline=None)
def test_agrees_with_brute_force_on_small_families(fam, target):
    res = delta_system(fam, target)
    if isinstance(res, SunflowerCertificate):
        assert len(res.selected) >= target
        assert validate_sunflower(fam, res) == []
    else:
        assert not res.inconclusive  # small families stay exhaustive
        assert not brute_force_has_certificate(fam, target)


@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_erdos_rado_guarantee(k, target, seed):
    bound = 1
    for i in range(1, k + 1):
        bound *= i
    bound *= (target - 1) ** k
    rng = random.Random(seed)
    universe = range(max(k + 4, 12))
    all_sets = list(itertools.combinations(universe, k))
    family = rng.sample(all_sets, bound + 1)
    cert = delta_system(family, target)
    assert isinstance(cert, SunflowerCertificate), f"failed on seed {seed}"
    assert validate_sunflower(family, cert) == []
