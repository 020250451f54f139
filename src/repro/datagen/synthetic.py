"""Synthetic MUAA workload generator (Section V-A, synthetic data sets).

Following the paper: customer locations are Gaussian
:math:`\\mathcal{N}(0.5, \\sigma^2)` per axis truncated to the unit
square; vendor locations are uniform; budgets, radii, capacities and
view probabilities are truncated Gaussians over their configured ranges.
Interest/tag vectors are produced through the *full* Section II pipeline
-- each synthetic customer gets a sampled check-in history over the
built-in taxonomy and each vendor a venue category -- so the synthetic
benchmarks exercise the same utility stack as the check-in workloads.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.entities import Customer, Vendor
from repro.core.problem import MUAAProblem
from repro.datagen.config import WorkloadConfig, default_ad_types
from repro.taxonomy.interest import propagate_score, vendor_vector
from repro.taxonomy.tree import Taxonomy
from repro.taxonomy.foursquare import foursquare_taxonomy
from repro.utility.activity import ActivityModel
from repro.utility.model import TaxonomyUtilityModel

#: Check-ins sampled per synthetic customer's history.
_CHECKINS_PER_CUSTOMER = (10, 40)

#: Distinct categories a synthetic customer is interested in.
_CATEGORIES_PER_CUSTOMER = (4, 8)

#: Customers per vectorized sampling chunk (bounds the working set of
#: the interest-matrix assembly to a few hundred MB at any taxonomy).
_FAST_CHUNK = 65_536

#: Zipf exponent of category popularity.  Both customers and vendors
#: draw categories from the same skewed distribution, which is what
#: creates realistic interest overlap (most traffic concentrates on a
#: few popular categories, as in real check-in data).
_CATEGORY_ZIPF = 1.0


def _truncated_gaussian_positions(
    rng: np.random.Generator, size: int, std: float
) -> np.ndarray:
    """Per-axis N(0.5, std^2) positions truncated to the unit square."""
    positions = rng.normal(0.5, std, size=(size, 2))
    bad = (positions < 0.0) | (positions > 1.0)
    for _ in range(256):
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        positions[bad] = rng.normal(0.5, std, size=n_bad)
        bad = (positions < 0.0) | (positions > 1.0)
    return np.clip(positions, 0.0, 1.0)


def _category_popularity(
    rng: np.random.Generator, n_categories: int
) -> np.ndarray:
    """Zipf popularity over leaf categories (shared by both sides)."""
    ranks = rng.permutation(n_categories) + 1
    popularity = 1.0 / ranks.astype(float) ** _CATEGORY_ZIPF
    return popularity / popularity.sum()


def _propagation_matrix(taxonomy: Taxonomy) -> np.ndarray:
    """Per-leaf Eq. 2-3 propagation columns.

    ``interest_vector`` is linear in the topic scores before its final
    max-normalization, so one :func:`propagate_score` per leaf (unit
    score) spans every possible check-in history:
    ``raw = sum_k sc(g_k) * P[leaf_k]``.
    """
    leaves = taxonomy.leaves()
    matrix = np.zeros((len(leaves), len(taxonomy)))
    for row, leaf in enumerate(leaves):
        for tag, score in propagate_score(taxonomy, leaf, 1.0).items():
            matrix[row, taxonomy.index(tag)] = score
    return matrix


def _interest_matrix_fast(
    rng: np.random.Generator,
    taxonomy: Taxonomy,
    count: int,
    popularity: np.ndarray,
) -> np.ndarray:
    """Sample a check-in history per customer and derive its Eq. 1-3
    interest row, for all ``count`` customers at once:

    * category sets via Gumbel-top-k -- the descending order of
      ``log p + Gumbel`` keys enumerates a popularity-weighted sample
      without replacement, so the first ``n_cat`` ranks match
      ``rng.choice(..., replace=False, p=popularity)``;
    * check-in counts as a bincount of uniform slot draws, which is the
      same distribution as ``rng.multinomial(n, uniform)``;
    * interest rows as counts-weighted sums of the per-leaf propagation
      matrix, max-normalized exactly like ``interest_vector`` (the
      constant Eq. 1 factor ``s / n_checkins`` cancels in the
      normalization).
    """
    matrix = _propagation_matrix(taxonomy)
    n_leaves = matrix.shape[0]
    lo_cat, hi_cat = _CATEGORIES_PER_CUSTOMER
    lo_chk, hi_chk = _CHECKINS_PER_CUSTOMER
    log_popularity = np.log(popularity)
    out = np.empty((count, matrix.shape[1]))
    for start in range(0, count, _FAST_CHUNK):
        m = min(_FAST_CHUNK, count - start)
        n_cats = rng.integers(lo_cat, hi_cat + 1, size=m)
        keys = log_popularity[None, :] + rng.gumbel(size=(m, n_leaves))
        top = np.argpartition(-keys, hi_cat - 1, axis=1)[:, :hi_cat]
        rows = np.arange(m)[:, None]
        order = np.argsort(-np.take_along_axis(keys, top, axis=1), axis=1)
        cats = np.take_along_axis(top, order, axis=1)
        n_checkins = rng.integers(lo_chk, hi_chk + 1, size=m)
        slots = (
            rng.random((m, hi_chk)) * n_cats[:, None]
        ).astype(np.int64)
        live = np.arange(hi_chk)[None, :] < n_checkins[:, None]
        counts = np.bincount(
            (rows * hi_cat + slots)[live], minlength=m * hi_cat
        ).reshape(m, hi_cat)
        raw = np.zeros((m, matrix.shape[1]))
        for slot in range(hi_cat):
            raw += counts[:, slot, None] * matrix[cats[:, slot]]
        # n_checkins >= lo_chk > 0 and every leaf column has a positive
        # leaf entry, so the row maximum is always positive.
        raw /= raw.max(axis=1, keepdims=True)
        out[start:start + m] = raw
    return out


def synthetic_problem(
    config: Optional[WorkloadConfig] = None,
    taxonomy: Optional[Taxonomy] = None,
    diurnal: bool = True,
    dtype=None,
) -> MUAAProblem:
    """Generate a complete synthetic MUAA instance.

    Args:
        config: Workload parameters; library defaults when omitted.
        taxonomy: Tag taxonomy; the built-in Foursquare-style tree when
            omitted.
        diurnal: Use the diurnal activity model (uniform when false).
        dtype: Engine dtype policy for the problem (``None``/
            ``"float64"``/``"float32"`` or a
            :class:`~repro.engine.DtypePolicy`); entity generation is
            unaffected.

    Returns:
        A ready-to-solve problem with the taxonomy utility model.
    """
    config = config or WorkloadConfig()
    taxonomy = taxonomy or foursquare_taxonomy()
    rng = np.random.default_rng(config.seed)

    popularity = _category_popularity(rng, len(taxonomy.leaves()))
    customers = _generate_customers(rng, config, taxonomy, popularity)
    vendors = _generate_vendors(rng, config, taxonomy, popularity)

    activity = (
        ActivityModel.diurnal(taxonomy) if diurnal
        else ActivityModel.uniform(taxonomy)
    )
    return MUAAProblem(
        customers=customers,
        vendors=vendors,
        ad_types=list(default_ad_types()),
        utility_model=TaxonomyUtilityModel(activity),
        dtype=dtype,
    )


def _generate_customers(
    rng: np.random.Generator,
    config: WorkloadConfig,
    taxonomy: Taxonomy,
    popularity: np.ndarray,
) -> List[Customer]:
    m = config.n_customers
    positions = _truncated_gaussian_positions(rng, m, config.customer_std)
    capacities = config.capacity_range.sample_int(rng, m)
    probabilities = config.probability_range.sample(rng, m)
    arrival_hours = rng.uniform(0.0, 24.0, size=m)
    interests = _interest_matrix_fast(rng, taxonomy, m, popularity)
    return [
        Customer(
            customer_id=i,
            location=(float(positions[i, 0]), float(positions[i, 1])),
            capacity=int(max(1, capacities[i])),
            view_probability=float(probabilities[i]),
            interests=interests[i],
            arrival_time=float(arrival_hours[i]),
        )
        for i in range(m)
    ]


def _generate_vendors(
    rng: np.random.Generator,
    config: WorkloadConfig,
    taxonomy: Taxonomy,
    popularity: np.ndarray,
) -> List[Vendor]:
    n = config.n_vendors
    positions = rng.uniform(0.0, 1.0, size=(n, 2))
    budgets = config.budget_range.sample(rng, n)
    radii = config.radius_range.sample(rng, n)
    leaves = taxonomy.leaves()
    categories = rng.choice(len(leaves), size=n, p=popularity)
    # Vendor tag vectors are a pure function of the venue leaf; memoize
    # per leaf (copies, so vendors never alias mutable state).  Values
    # are unchanged, so published seeds are unaffected.
    vectors: dict = {}
    tags_for = lambda leaf: vectors.setdefault(
        leaf, vendor_vector(taxonomy, leaf)
    ).copy()
    return [
        Vendor(
            vendor_id=j,
            location=(float(positions[j, 0]), float(positions[j, 1])),
            radius=float(radii[j]),
            budget=float(budgets[j]),
            tags=tags_for(leaves[int(categories[j])]),
        )
        for j in range(n)
    ]
