"""Tests for the synthetic QWS workload generator and extension procedure."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.sfs import sfs_skyline
from repro.data.distributions import sample_with_marginals
from repro.services.qws import (
    _CORR,
    _CUT_BAND,
    _MARGINAL_SPECS,
    _QUANT_DECIMALS,
    QWS_SCHEMA,
    ServiceDataset,
    _marginals,
    _quantized_marginals,
    extend_dataset,
    generate_qws,
    quantize_raw,
)

#: The beta columns, as (column, scale, a, b).
BETA_COLUMNS = [
    (j, *params) for j, (family, *params) in enumerate(_MARGINAL_SPECS) if family == "beta"
]


@pytest.fixture(scope="module")
def base():
    return generate_qws(3000, seed=42)


class TestGenerate:
    def test_shape_and_schema(self, base):
        assert base.raw.shape == (3000, 10)
        assert base.schema is QWS_SCHEMA
        assert len(base) == 3000

    def test_deterministic(self):
        a = generate_qws(100, seed=7)
        b = generate_qws(100, seed=7)
        assert np.array_equal(a.raw, b.raw)

    def test_seed_changes_data(self):
        a = generate_qws(100, seed=7)
        b = generate_qws(100, seed=8)
        assert not np.array_equal(a.raw, b.raw)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_qws(0)

    def test_attribute_ranges(self, base):
        raw = base.raw
        names = QWS_SCHEMA.names
        pct_cols = [
            names.index(n)
            for n in (
                "availability",
                "successability",
                "reliability",
                "compliance",
                "best_practices",
                "documentation",
            )
        ]
        for j in pct_cols:
            assert raw[:, j].min() >= 0 and raw[:, j].max() <= 100
        assert raw[:, names.index("response_time")].min() > 0
        assert raw[:, names.index("throughput")].max() <= 50

    def test_quantization_applied(self, base):
        names = QWS_SCHEMA.names
        av = base.raw[:, names.index("availability")]
        assert np.array_equal(av, np.round(av))

    def test_correlations_have_expected_signs(self, base):
        names = QWS_SCHEMA.names
        raw = base.raw
        rt = raw[:, names.index("response_time")]
        la = raw[:, names.index("latency")]
        av = raw[:, names.index("availability")]
        su = raw[:, names.index("successability")]
        assert np.corrcoef(rt, la)[0, 1] > 0.4
        assert np.corrcoef(av, su)[0, 1] > 0.3
        assert np.corrcoef(rt, av)[0, 1] < -0.1

    def test_no_perfect_service(self, base):
        """The degenerate all-optimal corner must not exist (it would
        collapse the skyline to one point)."""
        m = base.qos_matrix(10)
        best = m.min(axis=0)
        assert not (m == best).all(axis=1).any()

    def test_skyline_grows_with_dimension(self, base):
        sizes = [sfs_skyline(base.qos_matrix(d)).indices.size for d in (2, 4, 6, 8, 10)]
        # Weak monotonicity (ties allow small dips); overall growth required.
        assert sizes[-1] > sizes[0]
        assert sizes[-1] >= 100


class TestDatasetContainer:
    def test_qos_matrix_orientation(self, base):
        m = base.qos_matrix(4)
        assert m.shape == (3000, 4)
        assert (m >= 0).all()

    def test_qos_matrix_default_all_dims(self, base):
        assert base.qos_matrix().shape == (3000, 10)

    @pytest.mark.parametrize("dims", [0, -2, 11])
    def test_qos_matrix_rejects_dims_outside_the_schema(self, base, dims):
        # Only None means "all attributes"; 0 is out of range like -2 and 11.
        with pytest.raises(ValueError, match=r"dims must be in \[1, 10\]"):
            base.qos_matrix(dims)

    def test_subset_sampling(self, base):
        sub = base.subset(100, seed=1)
        assert len(sub) == 100
        # Every sampled row exists in the base.
        base_rows = {tuple(r) for r in base.raw}
        assert all(tuple(r) in base_rows for r in sub.raw)

    def test_subset_bounds(self, base):
        with pytest.raises(ValueError):
            base.subset(0)
        with pytest.raises(ValueError):
            base.subset(len(base) + 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ServiceDataset(raw=np.ones((5, 3)), schema=QWS_SCHEMA)


class TestQuantize:
    def test_idempotent(self, base):
        assert np.array_equal(quantize_raw(base.raw), base.raw)

    def test_rounds_percentages_to_integers(self):
        raw = np.zeros((1, 10))
        raw[0, 1] = 93.7
        assert quantize_raw(raw)[0, 1] == 94.0


class TestExtension:
    @pytest.mark.parametrize("method", ["resample", "jitter"])
    def test_prefix_is_base(self, base, method):
        ext = extend_dataset(base, 4000, seed=1, method=method)
        assert len(ext) == 4000
        assert np.array_equal(ext.raw[:3000], base.raw)

    @pytest.mark.parametrize("method", ["resample", "jitter"])
    def test_marginals_close_to_base(self, base, method):
        ext = extend_dataset(base, 9000, seed=1, method=method)
        synth = ext.raw[3000:]
        for j in range(10):
            lo, hi = base.raw[:, j].min(), base.raw[:, j].max()
            assert synth[:, j].min() >= lo - 1e-9
            assert synth[:, j].max() <= hi + 1e-9
            base_med = np.median(base.raw[:, j])
            synth_med = np.median(synth[:, j])
            scale = max(base.raw[:, j].std(), 1e-9)
            assert abs(base_med - synth_med) < scale

    def test_resample_preserves_correlation_sign(self, base):
        ext = extend_dataset(base, 9000, seed=2, method="resample")
        synth = ext.raw[3000:]
        rt, la = synth[:, 0], synth[:, 7]
        assert np.corrcoef(rt, la)[0, 1] > 0.3

    def test_same_size_returns_copy(self, base):
        same = extend_dataset(base, len(base))
        assert np.array_equal(same.raw, base.raw)
        assert same.raw is not base.raw

    def test_shrinking_rejected(self, base):
        with pytest.raises(ValueError):
            extend_dataset(base, 10)

    def test_unknown_method_rejected(self, base):
        with pytest.raises(ValueError, match="unknown method"):
            extend_dataset(base, 4000, method="clone")

    def test_negative_narrow_range_rejected(self, base):
        with pytest.raises(ValueError):
            extend_dataset(base, 4000, method="jitter", narrow_range=-0.1)

    def test_deterministic(self, base):
        a = extend_dataset(base, 4000, seed=5)
        b = extend_dataset(base, 4000, seed=5)
        assert np.array_equal(a.raw, b.raw)

    def test_benchmark_extension_is_pinned(self):
        # The benchmark's QWS 100,000 (perfbench batch-qws), byte for byte:
        # a change to the copula sampling or the empirical quantiles shows
        # up here without running the benchmark.
        ext = extend_dataset(generate_qws(10_000, seed=2012), 100_000, seed=2013)
        assert ext.raw.shape == (100_000, 10) and ext.raw.dtype == np.float64
        assert hashlib.sha256(ext.raw.tobytes()).hexdigest() == (
            "1de2427b0c0c939e7a57d520e587447855189de23c6f21f9831835171c36d9de"
        )

    def test_extension_writes_the_copula_product_in_place(self):
        # The Cholesky product goes straight into the output's synthetic
        # rows; only the raw normals sit beside the output.  With a
        # second (extra, d) product the traced peak is 3.1x the output.
        base = generate_qws(2_000, seed=2012)
        tracemalloc.start()
        try:
            ext = extend_dataset(base, 20_000, seed=2013)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * ext.raw.nbytes, peak / ext.raw.nbytes

    def test_jitter_stays_near_parents(self, base):
        ext = extend_dataset(base, 3500, seed=3, method="jitter", narrow_range=0.01)
        synth = ext.raw[3000:]
        # Each synthetic row must be within 1% of a std of SOME base row,
        # plus the per-attribute quantisation step (values are re-rounded
        # to QWS measurement resolution after jittering).
        from repro.services.qws import _QUANT_DECIMALS

        quant_step = np.array([0.5 * 10.0**-d for d in _QUANT_DECIMALS])
        spread = base.raw.std(axis=0) * 0.01 + quant_step + 1e-9
        for row in synth[:50]:
            close = (np.abs(base.raw - row) <= spread).all(axis=1)
            assert close.any()


class TestMarginals:
    def test_special_functions_match_the_stats_ppfs_bit_for_bit(self):
        # The generator evaluates its marginals with scipy.special; these
        # are the scipy.stats distributions it stands for, in schema order.
        from scipy import stats

        reference = [
            lambda u: stats.lognorm.ppf(u, s=0.75, scale=300.0),
            lambda u: 100.0 * stats.beta.ppf(u, 7.0, 1.4),
            lambda u: 50.0 * stats.beta.ppf(u, 1.6, 8.0),
            lambda u: 100.0 * stats.beta.ppf(u, 7.0, 1.2),
            lambda u: 100.0 * stats.beta.ppf(u, 6.0, 2.2),
            lambda u: 100.0 * stats.beta.ppf(u, 8.0, 2.2),
            lambda u: 100.0 * stats.beta.ppf(u, 5.0, 2.2),
            lambda u: stats.lognorm.ppf(u, s=0.9, scale=50.0),
            lambda u: 100.0 * stats.beta.ppf(u, 1.6, 3.0),
            lambda u: stats.lognorm.ppf(u, s=0.8, scale=5.0),
        ]
        # The copula clips its uniforms to [1e-12, 1 - 1e-12].
        u = np.concatenate(
            [
                [1e-12, 1.0 - 1e-12],
                np.linspace(1e-12, 1.0 - 1e-12, 1001),
                np.random.default_rng(7).random(20_000),
            ]
        )
        marginals = _marginals()
        assert len(marginals) == len(reference) == len(QWS_SCHEMA)
        for j, (fn, ref) in enumerate(zip(marginals, reference)):
            got, want = fn(u), ref(u)
            assert got.tobytes() == want.tobytes(), QWS_SCHEMA.names[j]


class TestCutTable:
    """The quantised beta columns read a cut table; their bits must be the
    per-value ``np.round(scale * betaincinv(a, b, u), dec)``."""

    @staticmethod
    def _adversarial_u(scale, a, b, dec):
        from scipy import special

        step = 10.0**-dec
        cuts = special.betainc(a, b, (np.arange(round(scale / step)) + 0.5) * step / scale)
        near = [cuts, cuts + _CUT_BAND, cuts - _CUT_BAND]
        up = down = cuts
        for _ in range(3):
            up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
            near += [up, down]
        u = np.concatenate(
            near + [[1e-12, 1.0 - 1e-12], np.random.default_rng(11).random(200_000)]
        )
        # The copula clips its uniforms to [1e-12, 1 - 1e-12].
        return np.clip(u, 1e-12, 1.0 - 1e-12)

    @pytest.mark.parametrize(
        "column", BETA_COLUMNS, ids=[QWS_SCHEMA.names[c[0]] for c in BETA_COLUMNS]
    )
    def test_each_beta_column_matches_the_rounded_inverse(self, column):
        j, scale, a, b = column
        dec = _QUANT_DECIMALS[j]
        u = self._adversarial_u(scale, a, b, dec)
        got = _quantized_marginals()[j](u)
        want = np.round(_marginals()[j](u), dec)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 2_000])
    def test_generate_matches_the_per_value_reference(self, n):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            want = quantize_raw(sample_with_marginals(n, _marginals(), _CORR, rng))
            got = generate_qws(n, seed=seed).raw
            assert got.tobytes() == want.tobytes(), seed

    def test_generate_inverts_almost_no_values(self, monkeypatch):
        # The cost guard without a clock: each betaincinv value is one
        # per-value inversion the cut table did not answer.
        from scipy import special

        inverted = []
        real = special.betaincinv

        def spy(a, b, u):
            inverted.append(np.size(u))
            return real(a, b, u)

        monkeypatch.setattr(special, "betaincinv", spy)
        generate_qws(10_000, seed=2012)
        assert sum(inverted) <= 0.01 * 10_000 * len(BETA_COLUMNS), inverted


def test_generation_stays_off_scipy_stats_and_within_memory():
    # A fresh interpreter: the test process has imported scipy.stats
    # itself.  Builds the benchmark's QWS 100,000 x 8 and serves a
    # generated register, then reports the peak-RSS growth over the
    # import baseline (the full-matrix generator grew 134 MB here, with
    # scipy.stats loaded).
    code = """
import json, resource, sys
from repro.serving.protocol import handle_request
from repro.serving.service import SkylineService
from repro.services.qws import extend_dataset, generate_qws

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

baseline = peak_mb()
ext = extend_dataset(generate_qws(10_000, seed=2012), 100_000, seed=2013)
matrix = ext.qos_matrix(8)
response = handle_request(
    SkylineService(),
    {"op": "register", "dataset": "g", "generate": {"n": 1000, "d": 4, "seed": 3}},
)
print(json.dumps({
    "ok": response["ok"],
    "shape": list(matrix.shape),
    "stats_loaded": "scipy.stats" in sys.modules,
    "growth_mb": peak_mb() - baseline,
}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["ok"] and report["shape"] == [100_000, 8]
    assert not report["stats_loaded"]
    assert report["growth_mb"] < 80, report
