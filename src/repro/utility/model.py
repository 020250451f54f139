"""Utility models implementing Eq. 4 of the paper.

The utility of an ad instance is

.. math::

    \\lambda_{ijk} = p_i \\cdot \\beta_k \\cdot
        \\frac{s(u_i, v_j, \\varphi)}{d(u_i, v_j, \\varphi)}

Only :math:`\\beta_k` depends on the ad type, so every model exposes a
*pair base* :math:`p_i \\cdot s / d` that is computed once per
customer-vendor pair and cached; the per-type utility is then a single
multiplication.  This mirrors how the paper's algorithms pick the "best"
ad type per pair cheaply.

Two concrete models:

* :class:`TaxonomyUtilityModel` -- the full pipeline of Section II
  (interest vectors, activity-weighted Pearson, distance).
* :class:`TabularUtilityModel` -- preferences and distances supplied
  directly as tables; used for the paper's worked example (Tables I/II)
  and for property tests with hand-crafted utilities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Tuple

from repro.core.entities import AdType, Customer, Vendor, distance
from repro.utility.activity import ActivityModel
from repro.utility.preference import positive_preference

#: Distances below this are clamped to keep Eq. 4 bounded (a customer
#: standing exactly on a vendor would otherwise have infinite utility).
#: In the unit-square convention this is tens of metres of a city-sized
#: map -- closer than that, "distance to the shop" stops being the
#: thing that attenuates an ad's effect.
MIN_DISTANCE = 1e-3

#: Default bound on the number of cached pair bases / weight vectors.
#: A long streaming run touches an unbounded set of (customer, vendor)
#: pairs; without a bound the cache grows with the stream.
DEFAULT_MAX_CACHE_ENTRIES = 1 << 20


def clamp_distance(dist: float, min_distance: float = MIN_DISTANCE) -> float:
    """The Eq. 4 denominator clamp, in its single authoritative place.

    Both the scalar models below and the vectorized kernels in
    :mod:`repro.engine.kernels` route their clamping through this
    definition (the kernels apply the same ``max`` element-wise with the
    model's :attr:`UtilityModel.min_distance`), so the two paths cannot
    drift apart.
    """
    return max(dist, min_distance)


class UtilityModel(ABC):
    """Interface every utility model implements."""

    #: Eq. 4 models factor as ``pair_base * effectiveness``; fast paths
    #: exploit that.  A model whose utility depends on the ad type in
    #: any other way (e.g. the knapsack-reduction's item locking) must
    #: set this True so callers evaluate :meth:`utility` per type.
    type_sensitive: bool = False

    @property
    def min_distance(self) -> float:
        """The clamp applied to Eq. 4's distance denominator."""
        return MIN_DISTANCE

    @abstractmethod
    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        """The type-independent factor :math:`p_i \\cdot s / d` of Eq. 4."""

    def utility(
        self, customer: Customer, vendor: Vendor, ad_type: AdType
    ) -> float:
        """Utility :math:`\\lambda_{ijk}` of one ad instance (Eq. 4)."""
        return self.pair_base(customer, vendor) * ad_type.effectiveness

    def efficiency(
        self, customer: Customer, vendor: Vendor, ad_type: AdType
    ) -> float:
        """Budget efficiency :math:`\\gamma_{ijk} = \\lambda_{ijk}/c_k`."""
        return self.utility(customer, vendor, ad_type) / ad_type.cost


class DelegatingUtilityModel(UtilityModel):
    """A utility model that forwards everything to an inner model.

    Base class for decorators around a utility model -- fault injectors,
    resilience guards, caching layers -- that want to intercept calls
    without re-implementing Eq. 4.  Subclasses typically override
    :meth:`pair_base` (and :meth:`utility` when the inner model is
    type-sensitive) and delegate via ``self.inner``.

    Args:
        inner: The wrapped utility model.
    """

    def __init__(self, inner: UtilityModel) -> None:
        self.inner = inner

    @property
    def type_sensitive(self) -> bool:  # type: ignore[override]
        return self.inner.type_sensitive

    @property
    def min_distance(self) -> float:
        return self.inner.min_distance

    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        return self.inner.pair_base(customer, vendor)

    def utility(
        self, customer: Customer, vendor: Vendor, ad_type: AdType
    ) -> float:
        return self.inner.utility(customer, vendor, ad_type)


class TaxonomyUtilityModel(UtilityModel):
    """Eq. 4 with the full Section II pipeline.

    Args:
        activity_model: Per-tag temporal activity (drives Eq. 5 weights).
        time_resolution_hours: Activity vectors are cached on a grid of
            this resolution; 0.25 h is far finer than the diurnal curves
            vary, so the cache is exact for practical purposes.
        min_distance: Clamp for the distance denominator.
        max_cache_entries: Bound on each internal cache (pair
            preferences and activity-weight vectors).  A cache that
            would exceed the bound is cleared before inserting --
            entries are cheap to recompute, so clear-on-overflow keeps a
            long streaming run's memory flat without LRU bookkeeping on
            the hot path.

    Raises:
        ValueError: On a non-positive resolution or cache bound.
    """

    def __init__(
        self,
        activity_model: ActivityModel,
        time_resolution_hours: float = 0.25,
        min_distance: float = MIN_DISTANCE,
        max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES,
    ) -> None:
        if time_resolution_hours <= 0:
            raise ValueError("time_resolution_hours must be positive")
        if max_cache_entries <= 0:
            raise ValueError("max_cache_entries must be positive")
        self._activity = activity_model
        self._resolution = time_resolution_hours
        self._min_distance = min_distance
        self._max_cache_entries = max_cache_entries
        self._weights_cache: Dict[int, "object"] = {}
        self._pair_cache: Dict[Tuple[int, int], float] = {}
        #: Times either cache hit its bound and was cleared.
        self.cache_clears: int = 0

    @property
    def min_distance(self) -> float:
        return self._min_distance

    @property
    def max_cache_entries(self) -> int:
        """The configured bound on each internal cache."""
        return self._max_cache_entries

    @property
    def time_resolution_hours(self) -> float:
        """Resolution of the activity-weight time grid."""
        return self._resolution

    def _cache_put(self, cache: Dict, key, value) -> None:
        if len(cache) >= self._max_cache_entries:
            cache.clear()
            self.cache_clears += 1
        cache[key] = value

    def time_bucket(self, hour: float) -> int:
        """The weight-grid bucket an hour falls into."""
        return int(round((hour % 24.0) / self._resolution))

    def weights_for_bucket(self, bucket: int):
        """Activity weights of one time-grid bucket.

        The vectorized engine evaluates edges bucket-by-bucket through
        this same accessor, so both paths see identical weight vectors.
        """
        weights = self._weights_cache.get(bucket)
        if weights is None:
            weights = self._activity.activity_vector(bucket * self._resolution)
            self._cache_put(self._weights_cache, bucket, weights)
        return weights

    def weights_at(self, hour: float):
        """Activity weights :math:`\\alpha_x(\\varphi)` on the time grid."""
        return self.weights_for_bucket(self.time_bucket(hour))

    # Backwards-compatible private name.
    _weights_at = weights_at

    def preference(self, customer: Customer, vendor: Vendor) -> float:
        """Temporal preference :math:`s(u_i, v_j, \\varphi)` (Eq. 5),
        clipped to non-negative values."""
        if customer.interests is None or vendor.tags is None:
            raise ValueError(
                "taxonomy utility model needs interest/tag vectors on both "
                "entities; use TabularUtilityModel for direct preferences"
            )
        weights = self.weights_at(customer.arrival_time)
        return positive_preference(customer.interests, vendor.tags, weights)

    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        # Only the preference is cached by ids: a customer can move
        # mid-run (trajectory scenarios), so the distance is recomputed.
        key = (customer.customer_id, vendor.vendor_id)
        preference = self._pair_cache.get(key)
        if preference is None:
            preference = self.preference(customer, vendor)
            self._cache_put(self._pair_cache, key, preference)
        dist = clamp_distance(distance(customer, vendor), self._min_distance)
        return customer.view_probability * preference / dist


class TabularUtilityModel(UtilityModel):
    """Eq. 4 with preferences (and optionally distances) given as tables.

    This reproduces the worked example of the paper exactly: Table II
    lists raw preference values and distances per pair, and the utility
    of e.g. a photo-link ad of :math:`v_2` to :math:`u_3` evaluates to
    :math:`0.15 \\times 0.4 \\times 0.9 / 7.5 = 0.0072`.

    Args:
        preferences: ``(customer_id, vendor_id)`` -> preference value.
        distances: Optional ``(customer_id, vendor_id)`` -> distance
            overriding the geometric distance (the paper's example uses
            its own distance table).
        default_preference: Value for pairs missing from the table.
        min_distance: Clamp for the distance denominator.
    """

    def __init__(
        self,
        preferences: Mapping[Tuple[int, int], float],
        distances: Optional[Mapping[Tuple[int, int], float]] = None,
        default_preference: float = 0.0,
        min_distance: float = MIN_DISTANCE,
    ) -> None:
        self._preferences = dict(preferences)
        self._distances = dict(distances) if distances is not None else None
        self._default = default_preference
        self._min_distance = min_distance

    @property
    def min_distance(self) -> float:
        return self._min_distance

    @property
    def preference_table(self) -> Mapping[Tuple[int, int], float]:
        """The per-pair preference table (read-only view for the engine)."""
        return self._preferences

    @property
    def distance_table(self) -> Optional[Mapping[Tuple[int, int], float]]:
        """The per-pair distance overrides, or ``None``."""
        return self._distances

    @property
    def default_preference(self) -> float:
        """Preference used for pairs missing from the table."""
        return self._default

    def preference(self, customer: Customer, vendor: Vendor) -> float:
        """The tabulated preference of the pair."""
        key = (customer.customer_id, vendor.vendor_id)
        return self._preferences.get(key, self._default)

    def _distance(self, customer: Customer, vendor: Vendor) -> float:
        if self._distances is not None:
            key = (customer.customer_id, vendor.vendor_id)
            if key in self._distances:
                return self._distances[key]
        return distance(customer, vendor)

    def pair_base(self, customer: Customer, vendor: Vendor) -> float:
        dist = clamp_distance(self._distance(customer, vendor), self._min_distance)
        return (
            customer.view_probability
            * self.preference(customer, vendor)
            / dist
        )
