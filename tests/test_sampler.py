from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from coklab.domains import (
    ZI,
    ZZ,
    elementary_quotient_ideals,
    factor_rational_prime,
    gauss_elem,
    int_elem,
    poly_domain,
    residue_vector,
)
from coklab.errors import ParameterError
from coklab.sampler import (
    _SEARCH_ENTRIES,
    EntryDistribution,
    balance_report,
    builtin_distribution,
    sample_index_batch,
    sample_index_matrix,
    sample_matrix,
)

F2X = poly_domain(2)
F3X = poly_domain(3)


def primes_below(domain, *ps):
    """Every prime of domain above each rational prime (or irreducible) in ps."""
    return [pr for p in ps for pr in factor_rational_prime(domain, p)]


def bern_half():
    return builtin_distribution("bernoulli01", {"q": 0.5})


def test_builtin_distributions():
    d = bern_half()
    assert [e.value for e in d.support] == [0, 1]
    assert d.weights == (Fraction(1, 2), Fraction(1, 2))

    d = builtin_distribution("poly-powers", {"p": 2, "m": 3})
    assert [e.value for e in d.support] == [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 1)]
    assert all(w == Fraction(1, 4) for w in d.weights)

    d = builtin_distribution("gaussian-basis")
    assert [e.value for e in d.support] == [(0, 0), (1, 0), (0, 1)]
    assert sum(d.weights) == 1

    d = builtin_distribution("uniform-support", {"support": ["0", "1", "i"]}, domain=ZI)
    assert len(d.support) == 3

    with pytest.raises(ParameterError):
        builtin_distribution("nope", {})
    with pytest.raises(ParameterError):
        builtin_distribution("bernoulli01", {"q": 1.5})


def test_weight_validation():
    with pytest.raises(ParameterError):
        EntryDistribution.of(ZZ, (int_elem(0), int_elem(1)), (0.5, 0.6))
    with pytest.raises(ParameterError):
        EntryDistribution.of(ZZ, (int_elem(0), int_elem(0)), (0.5, 0.5))
    with pytest.raises(ParameterError):
        EntryDistribution.of(ZZ, (int_elem(0), int_elem(1)), (1.0, -0.0001))
    # near-1 float weights are renormalized to exact rationals
    d = EntryDistribution.of(ZZ, (int_elem(0), int_elem(1)), (1 / 3, 2 / 3))
    assert sum(d.weights) == 1


def test_balance_bernoulli_mod_6():
    report = balance_report(bern_half(), ZZ, primes_below(ZZ, 2, 3))
    eps = {e.label: e.epsilon for e in report.entries}
    assert eps == {"(2)": Fraction(1, 2), "(3)": Fraction(1, 2)}
    assert report.overall == Fraction(1, 2)
    assert report.is_balanced()


def test_balance_gaussian_tau_invariant_support_fails():
    d = builtin_distribution("uniform-support", {"support": ["0", "1"]}, domain=ZI)
    report = balance_report(d, ZI, primes_below(ZI, 5))
    eps = {e.label: e.epsilon for e in report.entries}
    # the rational support sits inside an affine line of F_5^2
    assert eps["(5)"] == 0
    assert not report.is_balanced()
    # but each conjugate degree-1 quotient is fine
    assert eps["(2+i)"] == Fraction(1, 2)
    assert eps["(2-i)"] == Fraction(1, 2)


def test_balance_gaussian_basis_support():
    d = builtin_distribution("gaussian-basis")
    report = balance_report(d, ZI, primes_below(ZI, 5))
    eps = {e.label: e.epsilon for e in report.entries}
    # the binding constraint is the rank-2 quotient mod 5: the best affine
    # line covers two of the three support images
    assert eps["(5)"] == Fraction(1, 3)
    assert eps["(2+i)"] == Fraction(2, 3)
    assert eps["(2-i)"] == Fraction(2, 3)
    assert report.overall == Fraction(1, 3)


def test_balance_poly_powers():
    d = builtin_distribution("poly-powers", {"p": 2, "m": 3})
    report = balance_report(d, F2X, primes_below(F2X, (0, 1)))
    (entry,) = report.entries
    # at (x): images 1, 0, 0, 0 -> best hyperplane {0} has mass 3/4
    assert entry.epsilon == Fraction(1, 4)


def _all_proper_affine_subspace_max(dist, ideal):
    """Oracle: max mass over every proper affine subspace, enumerated literally."""
    p, k = ideal.p, ideal.k
    vectors = [residue_vector(s, ideal) for s in dist.support]
    points = list(product(range(p), repeat=k))
    # all proper linear subspaces: collect spans of every vector subset
    spans = set()
    for subset_size in range(k):
        for gens in product(points, repeat=subset_size):
            span = {(0,) * k}
            for g in gens:
                new = set()
                for mult in range(p):
                    for s in span:
                        new.add(tuple((a + mult * b) % p for a, b in zip(s, g)))
                span = new
            if len(span) < p ** k:
                spans.add(frozenset(span))
    best = Fraction(0)
    for span in spans:
        for shift in points:
            subspace = {tuple((a + b) % p for a, b in zip(s, shift)) for s in span}
            mass = sum(w for v, w in zip(vectors, dist.weights) if tuple(v) in subspace)
            best = max(best, mass)
    return best


def test_hyperplane_sufficiency_exhaustive():
    # p in {2, 3}, k <= 2: hyperplane-only max equals all-proper-affine max
    cases = [
        (bern_half(), ZZ, primes_below(ZZ, 2, 3)),
        (builtin_distribution("uniform-support", {"support": ["0", "1", "2", "5"]}, domain=ZZ),
         ZZ, primes_below(ZZ, 3)),
        (builtin_distribution("uniform-support", {"support": ["0", "1", "i", "1+i"]}, domain=ZI),
         ZI, primes_below(ZI, 3)),
        # x and x+1 over F_3, and their product of rank 2
        (builtin_distribution("poly-powers", {"p": 3, "m": 2}), F3X,
         primes_below(F3X, (0, 1), (1, 1))),
    ]
    for dist, domain, primes in cases:
        report = balance_report(dist, domain, primes)
        for ideal, entry in zip(elementary_quotient_ideals(domain, primes), report.entries):
            if ideal.p > 3 or ideal.k > 2:
                continue
            assert entry.worst_mass == _all_proper_affine_subspace_max(dist, ideal)


def test_balance_translation_invariance():
    base = builtin_distribution("uniform-support", {"support": ["0", "1", "i"]}, domain=ZI)
    eps0 = [e.epsilon for e in balance_report(base, ZI, primes_below(ZI, 5)).entries]
    shifted = EntryDistribution.of(
        ZI, [gauss_elem(s.value[0] + 3, s.value[1] - 2) for s in base.support], base.weights)
    eps1 = [e.epsilon for e in balance_report(shifted, ZI, primes_below(ZI, 5)).entries]
    assert eps0 == eps1


def test_builtin_support_size_matches_dimension_bound():
    # positive epsilon at ideal I needs support size >= dim(T/I) + 1
    cases = [
        (bern_half(), ZZ, primes_below(ZZ, 2, 3)),
        (builtin_distribution("gaussian-basis"), ZI, primes_below(ZI, 5)),
        (builtin_distribution("poly-powers", {"p": 2, "m": 3}), F2X, primes_below(F2X, (0, 1))),
    ]
    for dist, domain, primes in cases:
        report = balance_report(dist, domain, primes)
        for ideal, entry in zip(elementary_quotient_ideals(domain, primes), report.entries):
            if entry.epsilon > 0:
                assert len(dist.support) >= ideal.k + 1


def test_sampling_determinism():
    d = bern_half()
    a = sample_matrix(d, 5, 1, seed=42, trial=7)
    b = sample_matrix(d, 5, 1, seed=42, trial=7)
    assert a == b
    c = sample_matrix(d, 5, 1, seed=42, trial=8)
    assert a != c  # different trial, different stream (overwhelmingly)



def test_raw_draws_match_generator_integers():
    # The raw Philox words are exactly what Generator.integers returns over
    # the full 64-bit range, so the sampled indices match that reference.
    dist = builtin_distribution("uniform-support", {"support": ["0", "1", "-2", "5", "9"]}, ZZ)
    for seed, trial, n, u in product((0, 7, -3, 2 ** 64 - 1), (0, 1, 999), (1, 5, 48), (0, 2)):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, n, u, 0]))
        draws = gen.integers(0, 2 ** 64 - 1, size=(n, n + u), dtype=np.uint64, endpoint=True)
        want = np.searchsorted(dist.thresholds(), draws, side="right")
        assert np.array_equal(sample_index_matrix(dist, n, u, seed, trial), want)


def _reference_indices(dist, n, u, seed, trial):
    """One new Philox generator for the trial and one searchsorted."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial], dtype=np.uint64)
    draws = np.random.Philox(key=key, counter=np.array([0, n, u, 0], dtype=np.uint64)) \
        .random_raw(n * (n + u))
    return np.searchsorted(dist.thresholds(), draws.reshape(n, n + u), side="right")


def test_batch_sampler_matches_one_generator_per_trial():
    # sample_index_batch reuses one generator per call, setting its key and
    # counter per trial, and compares draws with each cutoff instead of
    # searching them when the matrix is large enough (here: 48 x 48, and one
    # cutoff at any shape); each row must equal the reference bit for bit.
    # Calls of different shapes and supports are interleaved in one process.
    dists = [EntryDistribution.of(ZZ, [int_elem(v) for v in range(s)], (Fraction(1, s),) * s)
             for s in (1, 2, 4, 5, 7)]  # 0, 1, 3, 4 and 6 cutoffs
    assert [len(d.thresholds()) for d in dists] == [0, 1, 3, 4, 6]
    for seed, first in product((0, 7, -3, 2 ** 64 - 1), (0, 999)):
        for n, u in ((12, 0), (48, 0), (5, 3)):
            for dist in dists:
                out = np.empty((3, n, n + u), np.min_scalar_type(len(dist.support) - 1))
                sample_index_batch(dist, n, u, seed, first, out)
                for i, got in enumerate(out):
                    assert np.array_equal(got, _reference_indices(dist, n, u, seed, first + i))
    with pytest.raises(ParameterError):
        sample_index_batch(dists[1], 3, -1, 0, 0, np.empty((1, 3, 2), np.uint8))


def test_batch_sampler_fills_a_strided_out():
    # Each of 70 trials equals its reference, in a batch-last view of an
    # (n, n + u, b) buffer and in a C-ordered one, compared with cutoffs
    # (4 x 200) and searched (4 x 5).
    dist = EntryDistribution.of(ZZ, [int_elem(v) for v in range(5)], (Fraction(1, 5),) * 5)
    assert (len(dist.thresholds()) - 1) * _SEARCH_ENTRIES == 576
    for n, u in ((4, 196), (4, 1)):
        for out in (np.moveaxis(np.empty((n, n + u, 70), np.uint8), -1, 0),
                    np.empty((70, n, n + u), np.uint8)):
            sample_index_batch(dist, n, u, 9, 100, out)
            for i, got in enumerate(out):
                assert np.array_equal(got, _reference_indices(dist, n, u, 9, 100 + i))


def test_batch_sampler_counts_a_cutoff_equal_to_its_draw():
    # A draw equal to a cutoff counts that cutoff, as searchsorted(side="right")
    # does, with one, three and six cutoffs: compared in a 1 x 2560 matrix,
    # searched (but for one cutoff) in a 1 x 1 matrix.
    unit = Fraction(1, 2 ** 64)
    paths = set()
    for u, s in product((0, 2559), (1, 3, 6)):
        d = int(np.random.Philox(key=np.array([5, 0], dtype=np.uint64),
                                 counter=np.array([0, 1, u, 0], dtype=np.uint64)).random_raw())
        weights = [(d - s + 1) * unit] + [unit] * (s - 1) + [1 - d * unit]
        dist = EntryDistribution.of(ZZ, [int_elem(v) for v in range(s + 1)], weights)
        assert dist.thresholds()[-1] == d
        out = np.empty((1, 1, 1 + u), np.uint8)
        sample_index_batch(dist, 1, u, 5, 0, out)
        assert out[0, 0, 0] == s
        paths.add((s - 1) * _SEARCH_ENTRIES > 1 + u)
    assert paths == {False, True}


def test_degenerate_distribution():
    d = EntryDistribution.of(ZZ, (int_elem(0),), (1,))
    M = sample_matrix(d, 3, 0, seed=1)
    assert all(x == int_elem(0) for row in M for x in row)


def test_chi_square_goodness_of_fit():
    # 10^5 draws against the weights; critical values at significance 1e-6
    crit = {1: 23.928, 2: 27.631, 3: 30.664}
    cases = [
        bern_half(),
        builtin_distribution("gaussian-basis"),
        builtin_distribution("poly-powers", {"p": 2, "m": 3}),
    ]
    for dist in cases:
        counts = np.zeros(len(dist.support), dtype=np.int64)
        trials = 100
        n = 1000 // 31 + 5  # ~37x27 per trial
        total = 0
        for t in range(trials):
            idx = sample_index_matrix(dist, 37, 0, seed=99, trial=t)
            counts += np.bincount(idx.ravel(), minlength=len(dist.support))
            total += idx.size
        assert total >= 10 ** 5
        expected = np.array([float(w) * total for w in dist.weights])
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < crit[len(dist.support) - 1]


def test_index_matrix_shape_and_range():
    d = builtin_distribution("gaussian-basis")
    idx = sample_index_matrix(d, 6, 2, seed=3)
    assert idx.shape == (6, 8)
    assert idx.min() >= 0 and idx.max() < 3
    with pytest.raises(ParameterError):
        sample_index_matrix(d, 0, 0, seed=3)
