"""Tests for the synthetic workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import validate_assignment
from repro.datagen.config import ParameterRange, WorkloadConfig
from repro.datagen.synthetic import synthetic_problem


@pytest.fixture(scope="module")
def problem():
    return synthetic_problem(
        WorkloadConfig(n_customers=300, n_vendors=40, seed=5)
    )


class TestGeneratedEntities:
    def test_counts(self, problem):
        assert len(problem.customers) == 300
        assert len(problem.vendors) == 40

    def test_locations_in_unit_square(self, problem):
        for c in problem.customers:
            assert 0.0 <= c.location[0] <= 1.0
            assert 0.0 <= c.location[1] <= 1.0
        for v in problem.vendors:
            assert 0.0 <= v.location[0] <= 1.0
            assert 0.0 <= v.location[1] <= 1.0

    def test_parameters_in_configured_ranges(self):
        config = WorkloadConfig(
            n_customers=100,
            n_vendors=20,
            budget_range=ParameterRange(3.0, 7.0),
            radius_range=ParameterRange(0.05, 0.1),
            capacity_range=ParameterRange(2, 5),
            probability_range=ParameterRange(0.4, 0.8),
            seed=1,
        )
        problem = synthetic_problem(config)
        for v in problem.vendors:
            assert 3.0 <= v.budget <= 7.0
            assert 0.05 <= v.radius <= 0.1
        for c in problem.customers:
            assert 2 <= c.capacity <= 5
            assert 0.4 <= c.view_probability <= 0.8

    def test_interest_vectors_populated(self, problem):
        for c in problem.customers[:20]:
            assert c.interests is not None
            assert c.interests.max() > 0
            assert c.interests.min() >= 0

    def test_vendor_tags_populated(self, problem):
        for v in problem.vendors[:10]:
            assert v.tags is not None
            assert v.tags.max() == pytest.approx(1.0)

    def test_deterministic_for_seed(self):
        a = synthetic_problem(WorkloadConfig(n_customers=50, n_vendors=10,
                                             seed=3))
        b = synthetic_problem(WorkloadConfig(n_customers=50, n_vendors=10,
                                             seed=3))
        for ca, cb in zip(a.customers, b.customers):
            assert ca.location == cb.location
            assert ca.capacity == cb.capacity
            assert np.allclose(ca.interests, cb.interests)

    def test_different_seeds_differ(self):
        a = synthetic_problem(WorkloadConfig(n_customers=50, n_vendors=10,
                                             seed=3))
        b = synthetic_problem(WorkloadConfig(n_customers=50, n_vendors=10,
                                             seed=4))
        assert any(
            ca.location != cb.location
            for ca, cb in zip(a.customers, b.customers)
        )


class TestWorkloadUsability:
    def test_positive_utilities_exist(self, problem):
        positive = 0
        for cid, vid in problem.valid_pairs():
            if problem.utility(cid, vid, 0) > 0:
                positive += 1
        assert positive > 0

    def test_panel_runs_and_is_feasible(self, problem):
        from repro.experiments.runner import run_panel

        results = run_panel(problem, algorithms=("GREEDY", "ONLINE"))
        for result in results.values():
            assert validate_assignment(problem, result.assignment).ok


def _legacy_interest_vectors(rng, taxonomy, count, popularity):
    """Reference sampler: one explicit check-in history per customer,
    turned into an interest vector by Eqs. 1-3 (``interest_vector``).

    The per-customer loop the vectorized generator replaced; it is kept
    here as the distributional reference the generator is checked
    against."""
    from repro.datagen.synthetic import (
        _CATEGORIES_PER_CUSTOMER,
        _CHECKINS_PER_CUSTOMER,
    )
    from repro.taxonomy.interest import interest_vector

    leaves = taxonomy.leaves()
    vectors = []
    lo_cat, hi_cat = _CATEGORIES_PER_CUSTOMER
    lo_chk, hi_chk = _CHECKINS_PER_CUSTOMER
    for _ in range(count):
        n_categories = int(rng.integers(lo_cat, hi_cat + 1))
        categories = rng.choice(
            len(leaves), size=n_categories, replace=False, p=popularity
        )
        n_checkins = int(rng.integers(lo_chk, hi_chk + 1))
        counts = rng.multinomial(
            n_checkins, np.ones(n_categories) / n_categories
        )
        history = {
            leaves[int(cat)]: int(count_)
            for cat, count_ in zip(categories, counts)
            if count_ > 0
        }
        vectors.append(interest_vector(taxonomy, history))
    return vectors


class TestFastSamplingPath:
    """The vectorized interest sampler vs the per-customer reference."""

    def test_fast_path_is_deterministic(self):
        config = WorkloadConfig(n_customers=80, n_vendors=10, seed=3)
        a = synthetic_problem(config)
        b = synthetic_problem(config)
        for ca, cb in zip(a.customers, b.customers):
            assert np.array_equal(ca.interests, cb.interests)

    def test_fast_interests_are_valid_eq1_vectors(self):
        config = WorkloadConfig(n_customers=200, n_vendors=10, seed=7)
        problem = synthetic_problem(config)
        for c in problem.customers:
            assert c.interests.min() >= 0.0
            assert c.interests.max() == pytest.approx(1.0)

    def test_fast_path_matches_legacy_statistics(self):
        """Same sampling distributions, different RNG call order: the
        marginal statistics must agree, the bits need not."""
        from repro.datagen.synthetic import _category_popularity
        from repro.taxonomy.foursquare import foursquare_taxonomy

        config = WorkloadConfig(n_customers=2000, n_vendors=5, seed=11)
        fast = synthetic_problem(config)
        # The generator draws category popularity first, so the same
        # seed gives the reference the same popularity.
        taxonomy = foursquare_taxonomy()
        rng = np.random.default_rng(config.seed)
        popularity = _category_popularity(rng, len(taxonomy.leaves()))
        f = np.stack([c.interests for c in fast.customers])
        s = np.stack(_legacy_interest_vectors(
            rng, taxonomy, config.n_customers, popularity
        ))
        assert f.mean() == pytest.approx(s.mean(), rel=0.1)
        assert (f > 0).mean() == pytest.approx((s > 0).mean(), rel=0.1)

    def test_fast_path_solves_identically_to_itself_across_chunks(
        self, monkeypatch
    ):
        """Chunking only bounds the working set; a chunk boundary must
        never change which customers exist or crash mid-assembly."""
        import repro.datagen.synthetic as synth

        config = WorkloadConfig(n_customers=300, n_vendors=10, seed=13)
        monkeypatch.setattr(synth, "_FAST_CHUNK", 128)
        chunked = synthetic_problem(config)
        assert len(chunked.customers) == 300
        for c in chunked.customers:
            assert c.interests.max() == pytest.approx(1.0)
