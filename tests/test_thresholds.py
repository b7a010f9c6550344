"""Threshold algebra: exact values, identities, and sign equivalences."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from exle import (
    DomainError,
    ExponentPair,
    IdentityReport,
    check_polynomial_identities,
    eval_H,
    eval_L,
    eval_t0,
    hausdorff_bound,
    hausdorff_bound_proof_form,
    largest_root_L,
    scaling_exponents,
    stability_product,
    threshold_report,
)
from exle import _SUBMODULES, cli, thresholds

SQRT2 = math.sqrt(2.0)

# Oracle values computed with mpmath at 50 decimal digits by bisecting
# the quartic built independently from its raw coefficient formulas.
T0_23 = 3.6636172204417678
S0_23 = 7.4930808441687973
X0_23 = 5.9944646753350379
NCOWAN_23 = 13.723575105413657
NNEW_23 = 13.988929350670076
IMPROVEMENT_23 = 0.26535424525641869
HAUSDORFF_23_14 = 0.011070649329924264
S0_157 = 6.5032501146252542
T0_157 = 3.0237866864247336


def _sample_pairs(count, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.02, 15.0, size=count)
    theta = rng.uniform(1.02, 15.0, size=count)
    return [ExponentPair(min(a, b), max(a, b)) for a, b in zip(p, theta)]


class TestExponentPair:
    def test_product_must_exceed_one(self):
        with pytest.raises(DomainError, match=r"p\*theta must exceed 1"):
            ExponentPair(1.0, 1.0)

    def test_exponents_below_one_rejected(self):
        with pytest.raises(DomainError):
            ExponentPair(0.5, 8.0)
        with pytest.raises(DomainError):
            ExponentPair(2.0, 0.99)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                ExponentPair(bad, 2.0)
            with pytest.raises(DomainError):
                ExponentPair(2.0, bad)

    def test_int_beyond_the_float_range_rejected(self):
        # math.isfinite(10**400) raised OverflowError.
        with pytest.raises(DomainError, match="p must be a finite number, got inf"):
            ExponentPair(10**400, 2.0)
        with pytest.raises(DomainError, match="theta must be a finite number, got -inf"):
            ExponentPair(2.0, -(10**400))

    def test_bool_rejected(self):
        for bad in (True, False):
            with pytest.raises(DomainError, match="must be a finite number"):
                ExponentPair(bad, 3.0)
            with pytest.raises(DomainError, match="must be a finite number"):
                ExponentPair(3.0, bad)

    @pytest.mark.parametrize(
        "p, theta, expected",
        [
            (np.int64(2), 3, (2.0, 3.0)),
            (np.float32(2.5), np.int32(3), (2.5, 3.0)),
            (2, np.float64(3.0), (2.0, 3.0)),
        ],
    )
    def test_real_numbers_stored_as_floats(self, p, theta, expected):
        pair = ExponentPair(p, theta)
        assert (pair.p, pair.theta) == expected
        assert type(pair.p) is float and type(pair.theta) is float
        assert threshold_report(pair) == threshold_report(ExponentPair(*expected))

    def test_canonical_and_symmetry(self):
        assert ExponentPair(3.0, 2.0).canonical() == (2.0, 3.0)
        assert ExponentPair(2.0, 3.0).canonical() == (2.0, 3.0)
        assert ExponentPair(2.0, 2.0).is_symmetric
        assert not ExponentPair(2.0, 3.0).is_symmetric

    def test_p_equals_one_accepted(self):
        rep = threshold_report(ExponentPair(1.0, 4.0))
        assert rep.s0 > 2.0 * rep.t0


class TestKnownValues:
    def test_symmetric_2_2_closed_forms(self):
        rep = threshold_report(ExponentPair(2.0, 2.0))
        assert rep.t0 == pytest.approx(2.0 + SQRT2, abs=1e-14)
        assert rep.s0 == pytest.approx(4.0 + 2.0 * SQRT2, abs=1e-12)
        assert rep.x0 == pytest.approx(4.0 + 2.0 * SQRT2, abs=1e-12)
        assert rep.n_cowan == pytest.approx(10.0 + 4.0 * SQRT2, abs=1e-12)
        assert rep.n_new == pytest.approx(10.0 + 4.0 * SQRT2, abs=1e-12)
        assert rep.improvement == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_2_3_frozen_oracle(self):
        rep = threshold_report(ExponentPair(2.0, 3.0))
        assert rep.t0 == pytest.approx(T0_23, abs=1e-12)
        assert rep.s0 == pytest.approx(S0_23, abs=1e-10)
        assert rep.x0 == pytest.approx(X0_23, abs=1e-10)
        assert rep.n_cowan == pytest.approx(NCOWAN_23, abs=1e-10)
        assert rep.n_new == pytest.approx(NNEW_23, abs=1e-10)
        assert rep.improvement == pytest.approx(IMPROVEMENT_23, abs=1e-10)

    def test_asymmetric_15_7_frozen_oracle(self):
        pair = ExponentPair(1.5, 7.0)
        assert eval_t0(pair) == pytest.approx(T0_157, abs=1e-12)
        assert largest_root_L(pair) == pytest.approx(S0_157, abs=1e-10)

    def test_integer_polynomial_values(self):
        sym = ExponentPair(2.0, 2.0)
        asym = ExponentPair(2.0, 3.0)
        assert eval_L(sym, 0.0) == pytest.approx(-64.0, abs=1e-12)
        assert eval_L(sym, 3.0) == pytest.approx(-175.0, abs=1e-12)
        assert eval_L(sym, 5.0) == pytest.approx(-399.0, abs=1e-12)
        assert eval_L(sym, 6.0) == pytest.approx(-304.0, abs=1e-12)
        assert eval_L(sym, 8.0) == pytest.approx(960.0, abs=1e-12)
        assert eval_L(asym, 7.0) == pytest.approx(-299.0, abs=1e-12)
        assert eval_L(asym, 8.0) == pytest.approx(442.0, abs=1e-12)
        assert eval_H(sym, 0.0) == pytest.approx(-64.0, abs=1e-12)
        assert eval_H(sym, 5.0) == pytest.approx(-399.0, abs=1e-12)
        assert eval_H(asym, 5.0) == pytest.approx(-226.5584, abs=1e-10)
        assert eval_L(asym, 4.5) == pytest.approx(-534.9375, abs=1e-10)

    def test_t0_limit_near_unit_exponents(self):
        # t0 -> 1 as (p, theta) -> (1, 1) from inside the valid region.
        assert eval_t0(ExponentPair(1.0 + 1e-9, 1.0 + 1e-9)) == pytest.approx(
            1.0, abs=1e-4
        )


class TestLargestRoot:
    def test_root_matches_companion_matrix(self):
        for pair in _sample_pairs(60, seed=11):
            p, theta = pair.canonical()
            f = 16.0 * p * theta * (p + 1.0) / (theta + 1.0) ** 2
            roots = np.roots([1.0, 0.0, -f * (theta + 1.0), f * (p + theta + 2.0),
                              -f * (p + 1.0)])
            real = roots.real[np.abs(roots.imag) < 1e-8 * np.abs(roots).max()]
            oracle = float(np.max(real))
            mine = largest_root_L(pair)
            assert mine == pytest.approx(oracle, rel=1e-9)

    def test_root_is_simple_and_largest(self):
        for pair in _sample_pairs(40, seed=5):
            s0 = largest_root_L(pair)
            scale = max(1.0, s0**4)
            assert abs(eval_L(pair, s0)) < 1e-9 * scale
            assert eval_L(pair, 1.001 * s0) > 0.0
            assert eval_L(pair, 0.999 * s0) < 0.0

    def test_root_exceeds_twice_t0(self):
        for pair in _sample_pairs(80, seed=7):
            t0 = eval_t0(pair)
            s0 = largest_root_L(pair)
            p, theta = pair.canonical()
            if pair.is_symmetric:
                assert s0 == pytest.approx(2.0 * t0, rel=1e-10)
            else:
                assert s0 > 2.0 * t0
            # the interior evaluation points stay below the root
            assert p + 1.0 < s0
            assert 2.0 * theta * (p + 1.0) / (theta + 1.0) < s0


class TestIdentities:
    def test_report_passes_for_random_pairs(self):
        for pair in _sample_pairs(25, seed=3):
            report = check_polynomial_identities(pair, sample_count=128, seed=1)
            assert report.ok(), report.worst_residual()
            assert all(value is True for value in report.signs.values())

    def test_symmetric_split_key_presence(self):
        sym = check_polynomial_identities(ExponentPair(2.5, 2.5), sample_count=32)
        asym = check_polynomial_identities(ExponentPair(2.0, 3.0), sample_count=32)
        assert "symmetric_split" in sym.residuals
        assert "symmetric_split" not in asym.residuals

    def test_residuals_match_a_sample_loop(self):
        # The sampled residuals are array code; each sample evaluated on its
        # own, with the maximum taken in Python, gives the same bits.
        for pair in (*_sample_pairs(6, seed=47), ExponentPair(2.5, 2.5)):
            report = check_polynomial_identities(pair, sample_count=40, seed=5)
            p, theta = pair.canonical()
            k = (theta + 1.0) / (p * theta - 1.0)
            rescale = split = 0.0
            for s in np.random.default_rng(5).uniform(0.0, 2.0 * report.s0, size=40).tolist():
                ls = eval_L(pair, s)
                scale = float(thresholds._monomial_scale_L(pair, s))
                rescale = max(rescale, abs(eval_H(pair, k * s) - k**4 * ls) / (k**4 * scale))
                product = (s * s + 4.0 * p * s - 4.0 * p) * (s * s - 4.0 * p * s + 4.0 * p)
                split = max(split, abs(ls - product) / scale)
            assert report.residuals["rescale"] == rescale
            assert report.residuals.get("symmetric_split", split) == split

    def test_unevaluated_residual_fails(self, monkeypatch):
        # max(0.0, nan) is 0.0, so a rescale residual that was nan at every
        # sample read 0 and passed.
        monkeypatch.setattr(thresholds, "eval_H", lambda e, x: np.full_like(x, np.nan))
        report = check_polynomial_identities(ExponentPair(2.0, 3.0), sample_count=16)
        assert math.isnan(report.residuals["rescale"])
        assert not report.ok()

    def test_nan_residual_is_the_worst(self):
        # max() over a nan key depended on the order of the residuals and
        # named rescale here, a residual that passes.
        report = IdentityReport(
            s0=3.0,
            residuals={"rescale": 1e-16, "value_at_2t0": math.nan, "value_at_p_plus_1": 0.0},
            signs={"negative_at_2": True},
            scan=(3, 16),
            scaling=3.0,
        )
        name, value = report.worst_residual()
        assert name == "value_at_2t0"
        assert math.isnan(value)
        assert not report.ok()
        assert [name for name, _ in report.failures()] == [
            "value_at_2t0", "equivalence_scan", "scaling_identity"
        ]

    def test_broken_stability_product_fails(self, monkeypatch, capsys):
        # The equivalence scan ran only in `exle verify`, which exited 1
        # while ok() read True.
        real = thresholds.stability_product
        monkeypatch.setattr(thresholds, "stability_product", lambda e, s: 2.0 - real(e, s))
        report = check_polynomial_identities(ExponentPair(2.0, 3.0), 200, 0)
        assert report.scan == (200, 200)
        assert report.failures() == [("equivalence_scan", 200.0)]
        assert not report.ok()
        assert cli.main(["verify", "--p", "2", "--theta", "3"]) == 1

    def test_broken_scaling_exponents_fail(self, monkeypatch):
        real = thresholds.scaling_exponents
        monkeypatch.setattr(
            thresholds, "scaling_exponents", lambda e: replace(real(e), alpha=real(e).alpha * 1.001)
        )
        report = check_polynomial_identities(ExponentPair(2.0, 3.0), sample_count=16)
        assert [name for name, _ in report.failures()] == ["scaling_identity"]
        assert not report.ok()

    def test_ok_is_the_verdict_of_exle_verify(self, capsys):
        for pair in _sample_pairs(25, seed=3):
            report = check_polynomial_identities(pair, sample_count=128, seed=1)
            flags = ["--p", repr(pair.p), "--theta", repr(pair.theta), "--samples", "128"]
            assert report.ok() == (cli.main(["verify", *flags, "--seed", "1"]) == 0)

    @pytest.mark.parametrize("theta", (2e153, 1.3e154))
    def test_rescale_past_the_square_overflow(self, theta):
        # eval_H formed (p theta - 1)^2, which overflows from theta = 2e153 on.
        pair = ExponentPair(1.5, theta)
        assert math.isfinite(eval_H(pair, 10.0))
        residual = check_polynomial_identities(pair, sample_count=200).residuals["rescale"]
        assert residual <= 1e-9

    def test_rescale_identity_pointwise(self):
        # H(k s) = k^4 L(s) with k = (theta+1)/(p theta - 1).
        rng = np.random.default_rng(17)
        for pair in _sample_pairs(30, seed=19):
            p, theta = pair.canonical()
            k = (theta + 1.0) / (p * theta - 1.0)
            for s in rng.uniform(0.0, 12.0, size=8):
                left = eval_H(pair, k * s)
                right = k**4 * eval_L(pair, s)
                scale = max(1.0, abs(left), abs(right))
                assert abs(left - right) < 1e-12 * scale

    def test_dimension_quartic_in_scaling_exponents(self):
        # H(x) = x^4 - p theta alpha (2x - alpha) beta (2x - beta), so in
        # particular H(alpha) = alpha^4 and H(beta) = beta^4.
        rng = np.random.default_rng(37)
        for a, b in 10.0 ** rng.uniform(0.0, 4.0, size=(400, 2)):
            if a * b <= 1.0:
                continue
            pair = ExponentPair(a, b)
            ab = scaling_exponents(pair)
            alpha, beta, pt = ab.alpha, ab.beta, a * b
            for x in (alpha, beta, *rng.uniform(-10.0, 40.0, size=3)):
                right = x**4 - pt * alpha * (2.0 * x - alpha) * beta * (2.0 * x - beta)
                scale = max(
                    x**4,
                    4.0 * pt * alpha * beta * x * x,
                    2.0 * pt * alpha * beta * (alpha + beta) * abs(x),
                    pt * (alpha * beta) ** 2,
                )
                assert abs(eval_H(pair, x) - right) <= 1e-12 * scale, (a, b, x)

    def test_value_at_twice_t0_closed_form(self):
        for pair in _sample_pairs(30, seed=23):
            p, theta = pair.canonical()
            t0 = eval_t0(pair)
            left = eval_L(pair, 2.0 * t0)
            right = (16.0 * p * theta * (p + 1.0) * (theta - p) * (1.0 - 2.0 * t0)
                     / (theta + 1.0) ** 2)
            scale = max(1.0, abs(left), abs(right), (2.0 * t0) ** 4)
            assert abs(left - right) < 1e-12 * scale
            if not pair.is_symmetric:
                assert left < 0.0

    def test_value_at_p_plus_one_closed_form(self):
        for pair in _sample_pairs(30, seed=29):
            p, theta = pair.canonical()
            left = eval_L(pair, p + 1.0)
            right = (-((p + 1.0) ** 2) * (5.0 * p * theta + theta + p + 1.0)
                     * (3.0 * p * theta - theta - p - 1.0) / (theta + 1.0) ** 2)
            scale = max(1.0, abs(left), abs(right))
            assert abs(left - right) < 1e-12 * scale

    def test_symmetric_factorization(self):
        rng = np.random.default_rng(31)
        for p in rng.uniform(1.02, 12.0, size=20):
            pair = ExponentPair(p, p)
            for s in rng.uniform(0.0, 10.0, size=6):
                split = ((s * s + 4.0 * p * s - 4.0 * p)
                         * (s * s - 4.0 * p * s + 4.0 * p))
                value = eval_L(pair, s)
                scale = max(1.0, abs(value), abs(split))
                assert abs(value - split) < 1e-12 * scale


class TestStabilityProduct:
    def test_rational_sample_points(self):
        pair = ExponentPair(2.0, 2.0)
        assert stability_product(pair, 6.0) == pytest.approx(100.0 / 81.0, abs=1e-14)
        assert stability_product(pair, 8.0) == pytest.approx(49.0 / 64.0, abs=1e-14)

    def test_domain_guard(self):
        # s = inf returned nan: q / (q + 1) is inf / inf
        for s in (3.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                stability_product(ExponentPair(2.0, 3.0), s)

    def test_arrays_match_floats(self):
        pair = ExponentPair(2.0, 3.0)
        s = np.linspace(3.5, 12.0, 50)
        floats = [stability_product(pair, x) for x in s.tolist()]
        assert stability_product(pair, s).tolist() == floats
        with pytest.raises(DomainError, match="got 2.5$"):
            stability_product(pair, np.array([4.0, 2.5, math.nan]))

    def test_sign_equivalence_sampled(self):
        # product > 1 exactly where L < 0, whenever L is clearly nonzero
        rng = np.random.default_rng(41)
        exceptions = 0
        checked = 0
        for pair in _sample_pairs(200, seed=43):
            p, _ = pair.canonical()
            s0 = largest_root_L(pair)
            for s in rng.uniform(p + 1.0 + 1e-6, 1.5 * s0, size=10):
                ls = eval_L(pair, s)
                if abs(ls) <= 1e-6:
                    continue
                checked += 1
                if (stability_product(pair, s) > 1.0) != (ls < 0.0):
                    exceptions += 1
        assert checked > 1500
        assert exceptions == 0


class TestScalingExponents:
    def test_values_2_3(self):
        se = scaling_exponents(ExponentPair(2.0, 3.0))
        assert se.alpha == pytest.approx(1.2, abs=1e-15)
        assert se.beta == pytest.approx(1.6, abs=1e-15)

    def test_defining_identities(self):
        for pair in _sample_pairs(50, seed=47):
            # user order, not canonical: swap half the time
            se = scaling_exponents(pair)
            assert se.beta * pair.p - 2.0 == pytest.approx(se.alpha, rel=1e-13)
            assert se.alpha * pair.theta - 2.0 == pytest.approx(se.beta, rel=1e-13)

    def test_order_sensitivity(self):
        fwd = scaling_exponents(ExponentPair(2.0, 3.0))
        rev = scaling_exponents(ExponentPair(3.0, 2.0))
        assert fwd.alpha == pytest.approx(rev.beta, abs=1e-15)
        assert fwd.beta == pytest.approx(rev.alpha, abs=1e-15)


class TestDimensionBounds:
    def test_improvement_strict_off_diagonal(self):
        for pair in _sample_pairs(80, seed=53):
            rep = threshold_report(pair)
            if pair.is_symmetric:
                assert abs(rep.improvement) < 1e-10
            else:
                assert rep.improvement > 0.0
                assert rep.n_new > rep.n_cowan

    def test_x0_exceeds_four_everywhere_sampled(self):
        for pair in _sample_pairs(200, seed=59):
            rep = threshold_report(pair)
            assert rep.x0 > 4.0
            assert rep.n_new > 10.0

    def test_hausdorff_bound_values(self):
        pair = ExponentPair(2.0, 3.0)
        assert hausdorff_bound(pair, 14) == pytest.approx(HAUSDORFF_23_14, abs=1e-10)
        assert hausdorff_bound(pair, 13) == 0.0
        assert hausdorff_bound(pair, 3) == 0.0

    def test_proof_form_weaker_than_theorem_bound(self):
        # whenever the theorem bound is positive, dim > 2 + 2 x0, so the
        # proof form subtracts 2 x0 + 4 x0/(dim-2) < 2 + 2 x0 and its
        # bound is strictly larger
        pair = ExponentPair(2.0, 2.0)
        for dim in (16, 20, 40):
            theorem = hausdorff_bound(pair, dim)
            proof = hausdorff_bound_proof_form(pair, dim)
            assert theorem > 0.0
            assert proof > theorem

    def test_proof_form_low_dimensions(self):
        pair = ExponentPair(2.0, 2.0)
        assert hausdorff_bound_proof_form(pair, 1) == 0.0
        assert hausdorff_bound_proof_form(pair, 2) == 0.0
        assert hausdorff_bound_proof_form(pair, 16) == pytest.approx(
            16.0 - (32.0 / 14.0) * (4.0 + 2.0 * SQRT2), rel=1e-12
        )

    def test_dim_validation(self):
        pair = ExponentPair(2.0, 2.0)
        for bad in (0, -3, 0.5, True, "16", 10**400):
            with pytest.raises(DomainError, match="dim must be a finite real number >= 1"):
                hausdorff_bound(pair, bad)
        # N is any real >= 1, as in RadialGrid; n_new = 10 + 4 sqrt 2 here.
        assert hausdorff_bound(pair, 16.5) == pytest.approx(6.5 - 4.0 * SQRT2, rel=1e-12)


def test_k_certificate_positive_on_grid():
    # K = (3p^2 - 1) th^3 + (2p^2 - p) th^2 - 2(p^2 + p) th + p equals
    # -((th+1)^4 / (16 th (p+1)^2)) L(m) at m = 2 th (p+1)/(th+1); its
    # positivity for theta >= p > 1 backs the strict-improvement claim
    for p in np.linspace(1.001, 20.0, 60):
        for theta in np.linspace(p, 20.0, 40):
            k = (
                (3.0 * p * p - 1.0) * theta**3
                + (2.0 * p * p - p) * theta**2
                - 2.0 * (p * p + p) * theta
                + p
            )
            assert k > 0.0
            mid = 2.0 * theta * (p + 1.0) / (theta + 1.0)
            scale = (theta + 1.0) ** 4 / (16.0 * theta * (p + 1.0) ** 2)
            assert -scale * eval_L(ExponentPair(p, theta), mid) == pytest.approx(k, rel=1e-9)


def test_root_tolerance_has_one_home():
    # Every root is bracketed to thresholds._ROOT_TOL and every identity
    # residual bounded by _IDENTITY_TOL: no public thresholds signature, nor
    # the root sweep's or the identity report's, takes a tol, and no command
    # has a tol or max_steps option.
    public = [getattr(thresholds, name) for name in _SUBMODULES["thresholds"]]
    others = [thresholds._largest_roots, IdentityReport.failures, IdentityReport.ok]
    for fn in public + others:
        params = set(inspect.signature(fn).parameters)
        assert not {"tol", "config", "max_steps"} & params, fn.__name__
    for command, (_, options) in cli._COMMANDS.items():
        assert not {"tol", "max_steps"} & {key for key, *_ in options}, command
