"""Synthetic QWS-like web-service QoS dataset — the paper's workload.

**Substitution note** (see DESIGN.md §2): the paper evaluates on the QWS
dataset (Al-Masri & Mahmoud) — nine measured QoS attributes over ~10,000
real web services — extended to 100,000 services × 10 attributes "by
randomly generating QoS values which are limited to a narrow range following
the distribution of the QWS dataset".  QWS is not redistributable here, so
this module synthesises a stand-in with

* the nine QWS attributes plus a tenth (price) to reach the paper's 10
  dimensions,
* marginal distributions matched to the published QWS summary statistics
  (log-normal-ish response time / latency, percentage attributes piling up
  near 100 %, gamma-ish throughput), and
* a realistic correlation structure via a Gaussian copula (response time ↔
  latency strongly positive; availability ↔ successability ↔ reliability
  positive; throughput mildly anti-correlated with response time).

The extension procedure itself (:func:`extend_dataset`) is implemented
exactly as the paper describes: fit *empirical* per-attribute marginals and
the rank-correlation of a base dataset, then copula-resample to any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distributions import (
    _erfinv,
    correlated_normals,
    empirical_quantile,
    normal_cdf,
    sample_with_marginals,
)
from repro.services.qos import Polarity, QoSAttribute, QoSSchema

__all__ = [
    "QWS_SCHEMA",
    "ServiceDataset",
    "generate_qws",
    "extend_dataset",
]


#: The nine QWS attributes plus a price attribute (10th dimension).
QWS_SCHEMA = QoSSchema(
    [
        QoSAttribute("response_time", "ms", Polarity.LOWER_IS_BETTER),
        QoSAttribute("availability", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("throughput", "invokes/s", Polarity.HIGHER_IS_BETTER, 50.0),
        QoSAttribute("successability", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("reliability", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("compliance", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("best_practices", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("latency", "ms", Polarity.LOWER_IS_BETTER),
        QoSAttribute("documentation", "%", Polarity.HIGHER_IS_BETTER, 100.0),
        QoSAttribute("price", "$", Polarity.LOWER_IS_BETTER),
    ]
)

# Hand-authored rank-correlation targets between the ten attributes, in
# schema order.  Derived from the qualitative relationships reported for QWS:
# the latency/response-time pair is strongly coupled; the "health"
# percentages (availability / successability / reliability) move together;
# compliance / best-practices / documentation are mildly coupled; throughput
# suffers under slow responses.  Magnitudes are moderate on purpose — strong
# correlation collapses the skyline to a handful of services, independence
# blows it up; the calibration target is a skyline that grows smoothly with
# the attribute-prefix dimension (see tests/services/test_qws.py).
_CORR = np.array(
    [
        # rt    av    tp    su    re    co    bp    la    do    pr
        [1.00, -0.35, -0.35, -0.35, -0.30, -0.15, -0.15, 0.70, -0.20, 0.35],
        [-0.35, 1.00, 0.25, 0.55, 0.45, 0.25, 0.20, -0.30, 0.30, -0.30],
        [-0.35, 0.25, 1.00, 0.25, 0.20, 0.10, 0.10, -0.30, 0.15, -0.20],
        [-0.35, 0.55, 0.25, 1.00, 0.50, 0.25, 0.20, -0.30, 0.30, -0.30],
        [-0.30, 0.45, 0.20, 0.50, 1.00, 0.20, 0.15, -0.25, 0.25, -0.25],
        [-0.15, 0.25, 0.10, 0.25, 0.20, 1.00, 0.35, -0.15, 0.45, 0.00],
        [-0.15, 0.20, 0.10, 0.20, 0.15, 0.35, 1.00, -0.15, 0.50, 0.00],
        [0.70, -0.30, -0.30, -0.30, -0.25, -0.15, -0.15, 1.00, -0.20, 0.35],
        [-0.20, 0.30, 0.15, 0.30, 0.25, 0.45, 0.50, -0.20, 1.00, -0.15],
        [0.35, -0.30, -0.20, -0.30, -0.25, 0.00, 0.00, 0.35, -0.15, 1.00],
    ]
)



#: Round-off applied to every generated attribute, mirroring QWS's
#: measurement resolution (integer percentages, millisecond timings).  The
#: resulting ties matter for skyline workloads: continuous synthetic data
#: has almost-surely-distinct coordinates and therefore unrealistically
#: large skylines at d = 10.
_QUANT_DECIMALS = (0, 0, 1, 0, 0, 0, 0, 0, 0, 2)


def _quantize_in_place(block: np.ndarray) -> None:
    """Round each column of ``block`` to its attribute's resolution, in place."""
    for j, dec in enumerate(_QUANT_DECIMALS[: block.shape[1]]):
        col = block[:, j]
        np.round(col, dec, out=col)


#: The ten marginals in schema order, as ``(family, *params)``:
#: ``("lognormal", sigma, scale)`` is ``exp(sigma * Φ⁻¹(u)) * scale`` and
#: ``("beta", scale, a, b)`` is ``scale`` times the Beta(a, b) quantile.
_MARGINAL_SPECS = (
    ("lognormal", 0.75, 300.0),  # response_time ms
    ("beta", 100.0, 7.0, 1.4),  # availability
    ("beta", 50.0, 1.6, 8.0),  # throughput (invokes/s, right-skewed)
    ("beta", 100.0, 7.0, 1.2),  # successability
    ("beta", 100.0, 6.0, 2.2),  # reliability
    ("beta", 100.0, 8.0, 2.2),  # compliance
    ("beta", 100.0, 5.0, 2.2),  # best_practices
    ("lognormal", 0.9, 50.0),  # latency ms
    ("beta", 100.0, 1.6, 3.0),  # documentation
    ("lognormal", 0.8, 5.0),  # price $
)

#: Half-width of the band around each cut of a quantised beta column in
#: which a value is inverted exactly instead of read from the cut table.
_CUT_BAND = 1e-9


def _marginals():
    """Quantile functions approximating the published QWS v2 marginals.

    Smooth distributions only (log-normal tails, beta percentages): hard
    clipping would put probability *atoms* at the attribute bounds, and the
    joint atom at the all-optimal corner manufactures "perfect services"
    that collapse the skyline to a single point — a degenerate workload no
    real service registry exhibits.

    The special functions are the ones ``scipy.stats.lognorm.ppf`` and
    ``scipy.stats.beta.ppf`` evaluate at loc 0 and scale 1, so the values
    carry the same bits; ``scipy.special`` costs under a third of the
    memory ``scipy.stats`` does to import.
    """
    from scipy import special

    def lognormal(sigma: float, scale: float):
        return lambda u: np.exp(sigma * special.ndtri(u)) * scale

    def beta(scale: float, a: float, b: float):
        return lambda u: scale * special.betaincinv(a, b, u)

    families = {"lognormal": lognormal, "beta": beta}
    return [families[family](*params) for family, *params in _MARGINAL_SPECS]


def _quantized_marginals():
    """The marginals of :func:`_marginals` rounded to QWS resolution.

    Column ``j`` returns the bits of ``np.round(_marginals()[j](u), dec)``.
    A rounded beta column is a non-decreasing step function of ``u``
    with ``K = scale · 10^dec`` steps, so it is read from a cut table:
    output ``k`` covers the ``u`` between the cuts
    ``betainc(a, b, (k ∓ ½)·10^-dec / scale)``.  A ``u`` within
    :data:`_CUT_BAND` of a cut — a tie, or a value whose side of the cut
    the table cannot vouch for — is inverted exactly instead.
    """
    from scipy import special

    exact = _marginals()

    def rounded(fn, dec: int):
        return lambda u: np.round(fn(u), dec)

    def cut_table(fn, dec: int, scale: float, a: float, b: float):
        step = 10.0**-dec
        steps = round(scale / step)
        grid = np.round(np.arange(steps + 1) * step, dec)
        cuts = special.betainc(a, b, (np.arange(steps) + 0.5) * step / scale)
        bounds = np.concatenate(([-np.inf], cuts, [np.inf]))

        def quantile(u: np.ndarray) -> np.ndarray:
            k = np.searchsorted(cuts, u)
            out = grid[k]
            near = (u - bounds[k] <= _CUT_BAND) | (bounds[k + 1] - u <= _CUT_BAND)
            if near.any():
                out[near] = np.round(fn(u[near]), dec)
            return out

        return quantile

    return [
        cut_table(fn, dec, *params) if family == "beta" else rounded(fn, dec)
        for fn, dec, (family, *params) in zip(exact, _QUANT_DECIMALS, _MARGINAL_SPECS)
    ]


@dataclass(slots=True)
class ServiceDataset:
    """A set of services with raw QoS values and their schema."""

    raw: np.ndarray  # (n, len(schema)) raw attribute values
    schema: QoSSchema
    name: str = "qws-synthetic"

    def __post_init__(self) -> None:
        self.raw = np.asarray(self.raw, dtype=np.float64)
        if self.raw.ndim != 2 or self.raw.shape[1] != len(self.schema):
            raise ValueError(
                f"raw shape {self.raw.shape} does not match schema "
                f"({len(self.schema)} attributes)"
            )

    def __len__(self) -> int:
        return self.raw.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.raw.shape[1]

    def qos_matrix(self, dims: int | None = None) -> np.ndarray:
        """All-minimisation matrix over the first ``dims`` attributes.

        This is what feeds the skyline pipeline: the paper evaluates at
        d ∈ {2, 4, 6, 8, 10} by taking attribute prefixes.
        """
        if dims is None:
            dims = self.num_attributes
        sub = self.schema.subset(dims)
        return sub.to_minimization(self.raw[:, :dims])

    def subset(self, n: int, *, seed: int = 0) -> "ServiceDataset":
        """A uniform random sample of ``n`` services (without replacement)."""
        if not 1 <= n <= len(self):
            raise ValueError(f"n must be in [1, {len(self)}], got {n}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=n, replace=False)
        return ServiceDataset(
            raw=self.raw[np.sort(idx)], schema=self.schema, name=f"{self.name}-sub{n}"
        )


def generate_qws(n: int = 10_000, *, seed: int = 0) -> ServiceDataset:
    """Generate ``n`` synthetic QWS-like services over all 10 attributes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    raw = sample_with_marginals(n, _quantized_marginals(), _CORR, rng)
    return ServiceDataset(raw=raw, schema=QWS_SCHEMA)


def _rank_correlation(data: np.ndarray) -> np.ndarray:
    """Rank correlation via normal scores (van der Waerden), robust to the
    heavy-tailed marginals."""
    if data.shape[1] == 1:
        return np.ones((1, 1))
    # The ranks are the inverse permutation of one argsort: a scatter
    # gives the integers argsort(argsort(data)) would, without a second sort.
    order = np.argsort(data, axis=0)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(data.shape[0])[:, None], axis=0)
    u = (ranks + 0.5) / data.shape[0]
    scores = np.sqrt(2.0) * _erfinv(2.0 * u - 1.0)
    return np.corrcoef(scores, rowvar=False)


def extend_dataset(
    base: ServiceDataset,
    n: int,
    *,
    seed: int = 0,
    method: str = "resample",
    narrow_range: float = 0.05,
) -> ServiceDataset:
    """The paper's extension procedure: grow ``base`` to ``n`` services.

    "We extend the size of QWS dataset by randomly generating QoS values
    which are limited to a narrow range following the distribution of the
    QWS dataset."  Two readings are implemented:

    ``method="resample"`` (default)
        Distribution-matched copula resampling: fit empirical per-attribute
        quantile functions and the base's rank correlation (normal-scores
        transform), then sample ``n - len(base)`` fresh services.  This is
        the "following the distribution" reading and is what the benchmark
        harness uses.

    ``method="jitter"``
        The "limited to a narrow range" reading: each synthetic service is
        a uniformly-chosen base service with every attribute perturbed
        uniformly within ``± narrow_range`` of that attribute's standard
        deviation, clipped to the base's observed [min, max].  Keeps local
        cluster structure but multiplies skyline membership (each skyline
        service spawns incomparable neighbours); compared in the ablation
        benchmarks.

    In both cases the first ``len(base)`` rows are the base itself — the
    paper *extends* the dataset, it does not replace it.
    """
    if n < len(base):
        raise ValueError(
            f"extension target {n} is smaller than the base ({len(base)})"
        )
    rng = np.random.default_rng(seed)
    data = base.raw
    extra = n - len(base)
    if extra == 0:
        return ServiceDataset(raw=data.copy(), schema=base.schema, name=base.name)

    # Fit the copula before allocating the output: the fit's rank
    # temporaries are then freed before the (n, d) block exists instead
    # of leaving holes below it.  Five back-to-back QWS 100,000 builds
    # peak ~6 MB lower in RSS this way (glibc malloc, Linux).
    corr = _rank_correlation(data) if method == "resample" else None
    # The synthetic rows go straight into the final matrix, below the base.
    out = np.empty((n, data.shape[1]))
    out[: len(base)] = data
    synthetic = out[len(base) :]
    if method == "jitter":
        if narrow_range < 0:
            raise ValueError(f"narrow_range must be >= 0, got {narrow_range}")
        parents = rng.integers(0, len(base), size=extra)
        spread = data.std(axis=0) * narrow_range
        noise = rng.uniform(-1.0, 1.0, size=(extra, data.shape[1])) * spread
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        np.clip(data[parents] + noise, lo, hi, out=synthetic)
    elif method == "resample":
        # The copula product lands in the synthetic rows themselves; then
        # one column at a time, in place: Φ and the empirical quantile of
        # each normal column, the same bits as mapping the whole copula
        # matrix at once.
        correlated_normals(extra, corr, rng, out=synthetic)
        for j in range(data.shape[1]):
            col = synthetic[:, j]
            col[:] = empirical_quantile(data[:, j])(normal_cdf(col))
    else:
        raise ValueError(f"unknown method {method!r}; use 'resample' or 'jitter'")

    _quantize_in_place(synthetic)
    return ServiceDataset(raw=out, schema=base.schema, name=f"{base.name}-x{n}")
