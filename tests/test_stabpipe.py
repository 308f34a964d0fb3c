"""Parameter schedule, remainder bounds, and the certifying pipeline."""

import math

import numpy as np
import pytest

from torusstab import (
    AnalyticityWidths,
    FourierTaylorSeries,
    HolderClass,
    NumericalFault,
    PipelineStageError,
    PreconditionError,
    RHO_MAX,
    build_test_hamiltonian,
    coefficient_norm_max,
    dominance_threshold,
    golden_frequency,
    holder_norm_majorant,
    normalform,
    parameter_schedule,
    predicted_stability_time,
    remainder_bounds,
    run_pipeline,
    smooth_coefficients,
    stabpipe,
    taylor_split,
)
from torusstab.ftseries import keep_last
from torusstab.normalform import XI
from series_helpers import cosine

D = 2
OMEGA = golden_frequency(2)
HC65 = HolderClass(6.5, 2)
HC6 = HolderClass(6.0, 2)
GATE_NAMES = ["rho_ok", "s_in_range", "dominance", "gamma_K", "K_sigma", "smallness",
              "contraction"]


def schedule_holds(sch):
    """The two schedule gates of run_pipeline: rho < min(s, e^-6) and s <= 1."""
    return sch.rho < min(sch.s, RHO_MAX) and sch.s <= 1.0


class TestTaylorSplit:
    def test_partition_by_order(self):
        f = (
            cosine(D, (1, 0), m=(2, 0))
            + cosine(D, (1, 0), m=(0, 4))
            + cosine(D, (2, 0), m=(5, 0))
        )
        split = taylor_split(f, HC65, 0.1)  # q = 6, P keeps orders 2..4
        assert split.P + split.Z == f
        assert split.P.max_taylor_order() <= 4
        assert split.Z.min_taylor_order() >= 5

    def test_tail_bound_hand_value(self):
        f = cosine(D, (2, 0), m=(5, 0))
        split = taylor_split(f, HC65, 0.1)
        # two coefficients 1/2, |k|_1 = 2, rho^5
        assert split.Z_bound == pytest.approx(2 * 0.5 * 2 * math.pi * 2 * 0.1**5)

    def test_low_order_rejected(self):
        f = cosine(D, (1, 0), m=(1, 0))
        with pytest.raises(PreconditionError):
            taylor_split(f, HC65, 0.1)

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf])
    def test_bad_rho_rejected_by_name(self, rho):
        f = cosine(D, (1, 0), m=(2, 0))
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            taylor_split(f, HC65, rho)


class TestSmoothCoefficients:
    def test_gap_majorants(self):
        f = cosine(D, (4, 0), m=(2, 0))
        split = taylor_split(f, HC65, 0.2)
        sm = smooth_coefficients(split, 0.5)  # cutoff |k|_1 <= 2 drops everything
        assert not sm.P_s
        half = 0.1
        assert sm.grad_I_gap == pytest.approx(2 * 0.5 * 2 * half)
        assert sm.grad_theta_gap == pytest.approx(2 * 0.5 * 2 * math.pi * 4 * half**2)

    def test_nothing_dropped(self):
        f = cosine(D, (1, 0), m=(2, 0))
        split = taylor_split(f, HC65, 0.2)
        sm = smooth_coefficients(split, 0.5)
        assert sm.P_s == split.P
        assert sm.dropped_mass == 0.0


class TestParameterSchedule:
    def test_worked_example(self):
        # rho = 1e-12, gamma = 0.5, tau = 1, ell = 6 with the coefficient norm
        # chosen so rho_tilde = 1: then K = 10^6 and s = 6.631445e-4
        gamma = 0.5
        sch = parameter_schedule(1e-12, gamma, 1.0, HC6, gamma / 512.0)
        assert sch.a == pytest.approx(0.5)
        assert sch.b == pytest.approx(24.0)
        assert sch.rho_tilde == pytest.approx(1.0, rel=1e-12)
        assert sch.K == 10**6
        assert sch.s == pytest.approx(6.631445067822851e-4, rel=1e-12)
        assert sch.alpha == pytest.approx(gamma / 10**6, rel=1e-12)
        assert schedule_holds(sch)

    def test_cutoff_width_product_identity(self):
        # K * s = b |log rho| up to the integer ceiling on K
        for rho in (1e-12, 3.7e-9, 2.2e-7):
            sch = parameter_schedule(rho, 0.5, 1.0, HC65, 1e-3)
            target = sch.b * abs(math.log(rho))
            assert abs(sch.K * sch.s - target) <= target / sch.K + 1e-9

    def test_smallness_saturates_at_real_cutoff(self):
        # rho_tilde makes the smallness inequality an equality at the
        # real-valued cutoff (rho_tilde/rho)^a, so its gate reads at most 1
        for rho in (1e-10, 1e-6, 1e-4):
            for tau in (0.3, 1.0, 2.0):
                for cmax in (1e-8, 1e-3, 10.0):
                    sch = parameter_schedule(rho, 0.5, tau, HC65, cmax)
                    cutoff = (sch.rho_tilde / rho) ** sch.a
                    rhs = 0.5 * rho / (256.0 * XI * cutoff ** (tau + 1.0))
                    assert cmax * rho**2 == pytest.approx(rhs, rel=1e-9)

    def test_infinite_cutoff_rejected_by_name(self):
        # a vanishing coefficient norm sends rho_tilde, and with it K, to inf
        with pytest.raises(ValueError, match="^cutoff K "):
            parameter_schedule(1e-20, 0.5, 1.0, HC65, 1e-300)

    def test_large_rho_flagged(self):
        # rho_ok is strict: rho = e^-6 itself fails it
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        for rho in (0.1, RHO_MAX):
            report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho)
            assert report.gates[0] == ("rho_ok", rho, RHO_MAX)
            assert report.failure.startswith("failed gates: rho_ok")
            assert not report.certified

    def test_input_validation(self):
        with pytest.raises(ValueError):
            parameter_schedule(-0.1, 0.5, 1.0, HC65, 1.0)
        with pytest.raises(ValueError):
            parameter_schedule(0.01, 0.0, 1.0, HC65, 1.0)


class TestRemainderBounds:
    def test_dominance_gate_value(self):
        assert dominance_threshold(1.0) == pytest.approx(5.0)
        assert dominance_threshold(0.5) == pytest.approx(7.0)

    def test_gate_violation_raises(self):
        # ell = 6.5 passes at tau = 1 (gate 5) but fails at tau = 0.5 (gate 7)
        sch = parameter_schedule(1e-8, 0.5, 0.5, HC65, 1e-3)
        with pytest.raises(PreconditionError, match=r"ell = 6\.5 must exceed .* = 7\.0"):
            remainder_bounds(sch, HC65)

    def test_smoothing_gap_dominates_over_six_decades(self):
        for exp in range(7, 13):
            rho = 10.0**-exp
            sch = parameter_schedule(rho, 0.5, 1.0, HC65, 1e-3)
            assert schedule_holds(sch), rho
            bounds = remainder_bounds(sch, HC65)
            assert bounds.dominant == "smoothing_gap"
            assert bounds.smoothing_gap >= bounds.analytic
            assert bounds.smoothing_gap >= bounds.taylor

    def test_invalid_schedule_rejected(self, monkeypatch):
        # a failed schedule gate returns the report before the bounds stage
        def unreachable(*args):
            raise AssertionError("remainder_bounds ran on a failed schedule")

        monkeypatch.setattr(stabpipe, "remainder_bounds", unreachable)
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 0.1)
        assert report.failure is not None
        assert report.bounds is None


class TestPredictedTimes:
    def test_headline_oracle(self):
        # rho = 1e-4, ell = 6, tau = 1, constants 1:
        # 1/(rho^3.5 |log rho|^5) = 1.5087649965990064e9
        pred = predicted_stability_time(1e-4, HC6, 1.0)
        assert pred.exponent == pytest.approx(3.5)
        assert pred.log_exponent == pytest.approx(5.0)
        assert pred.t_theorem == pytest.approx(1.5087649965990064e9, rel=1e-12)

    def test_headline_form_scales_with_exponent(self):
        p1 = predicted_stability_time(1e-6, HC65, 1.0)
        p2 = predicted_stability_time(1e-7, HC65, 1.0)
        # the time must scale with the stated rho power once the log factor
        # is divided out
        ratio = (p2.t_theorem * abs(math.log(1e-7)) ** p1.log_exponent) / (
            p1.t_theorem * abs(math.log(1e-6)) ** p1.log_exponent
        )
        assert math.log(ratio) / math.log(10.0) == pytest.approx(p1.exponent, rel=1e-12)

    def test_rho_domain(self):
        for rho in (-1.0, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=rf"^rho must lie in \(0, 1\), got {rho!r}$"):
                predicted_stability_time(rho, HC65, 1.0)


def perturbation(H, omega):
    """f of H = omega.I + f, as run_pipeline extracts it."""
    return stabpipe._perturbation(H, omega)[0]


def three_merge_perturbation(H, omega):
    """perturbation by its definition: f = H - omega.I less the stray
    k = 0, |m|_1 <= 1 terms of f, which must be negligible."""
    f = H - FourierTaylorSeries.linear(omega)
    stray = f.select(lambda nk, nm, c: (nk == 0) & (nm <= 1))
    if stray and stray.mass() > stabpipe.LINEAR_PART_TOL * max(H.mass(), 1.0):
        raise PreconditionError("Hamiltonian linear part does not match the supplied frequency")
    return f - stray


# kept by f: k != 0 at |m|_1 = 0 and 1, and k = 0 at |m|_1 = 2
F_EDGES = (
    cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
    + cosine(D, (0, 1), amplitude=2e-3)
    + cosine(D, (1, -1), m=(0, 1), amplitude=3e-3, phase=-0.5 * math.pi)
    + FourierTaylorSeries(D, {((0, 0), (1, 1)): 4e-3})
)
W = tuple(OMEGA)


class TestPerturbationExtraction:
    def test_splits_linear_part(self):
        f = cosine(D, (1, 0), m=(2, 0), amplitude=1e-3)
        H = FourierTaylorSeries.linear(OMEGA) + f
        assert perturbation(H, OMEGA) == f

    def test_wrong_frequency_rejected(self):
        H = FourierTaylorSeries.linear((1.0, 2.0))
        with pytest.raises(PreconditionError):
            perturbation(H, OMEGA)

    @pytest.mark.parametrize("omega", [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0)])
    def test_frequency_of_another_dimension_rejected(self, omega):
        message = f"^series has d = 2, frequency has d = {len(omega)}$"
        with pytest.raises(PreconditionError, match=message):
            perturbation(FourierTaylorSeries.linear(OMEGA), omega)

    @pytest.mark.parametrize("scale", [1e-3, 1e-15])
    def test_complex_perturbation_rejected_at_any_scale(self, scale):
        # f's reality is measured against f's own mass, not H's, which omega.I
        # dominates: a 1e-15 imaginary f is refused too
        H = FourierTaylorSeries.linear(OMEGA) + F_EDGES * (1j * scale)
        with pytest.raises(NumericalFault, match="^pipeline requires a real-valued series$"):
            perturbation(H, OMEGA)

    @pytest.mark.parametrize(
        "linear, extra, omega",
        [
            (W, 1e-12, OMEGA),  # a negligible constant term, dropped
            (W, 0.0, OMEGA),
            (W, 0.0, (W[0] + 1e-12, W[1])),  # omega off by < LINEAR_PART_TOL
            ((0.0, 1.5), 0.0, (0.0, 1.5)),  # a zero component
            ((1.5, 0.0), 0.0, (1.5, 0.0)),
            ((W[0] + 1e-12, W[1]), 0.0, OMEGA),  # linear part off by < LINEAR_PART_TOL
        ],
    )
    def test_accepted_as_by_three_merges(self, linear, extra, omega):
        H = FourierTaylorSeries.linear(linear) + F_EDGES + extra
        f = perturbation(H, omega)
        assert f == three_merge_perturbation(H, omega)
        assert f == F_EDGES

    @pytest.mark.parametrize(
        "linear, extra, omega",
        [
            (W, 0.5, OMEGA),  # a constant term beyond tolerance
            ((W[0] + 1e-3, W[1]), 0.0, OMEGA),  # linear part off by > LINEAR_PART_TOL
            (W, 0.0, (W[0] + 1e-3, W[1])),  # omega off by > LINEAR_PART_TOL
            ((1.5, 1e-3), 0.0, (1.5, 0.0)),  # a zero component not matched
        ],
    )
    def test_rejected_as_by_three_merges(self, linear, extra, omega):
        H = FourierTaylorSeries.linear(linear) + F_EDGES + extra
        with pytest.raises(PreconditionError):
            three_merge_perturbation(H, omega)
        with pytest.raises(PreconditionError, match="linear part does not match"):
            perturbation(H, omega)


def count_splits(monkeypatch):
    splits = []
    original = stabpipe.split_linear

    def counted(H, owner):
        splits.append(len(H))
        return original(H, owner)

    monkeypatch.setattr(stabpipe, "split_linear", counted)
    return splits


class TestPerturbationKept:
    """run_pipeline keeps the last H object's f with omega's values: a
    ladder of radii on one H computes f once."""

    def test_one_perturbation_per_object(self, monkeypatch):
        splits = count_splits(monkeypatch)
        H = build_test_hamiltonian(HC65, seed=1)
        warm = [run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho).to_text() for rho in (1e-3, 5e-4)]
        assert len(splits) == 1
        assert perturbation(H, OMEGA) is perturbation(H, W)
        assert len(splits) == 1
        fresh = build_test_hamiltonian(HC65, seed=1)
        cold = [run_pipeline(fresh, OMEGA, 0.5, 1.0, HC65, rho).to_text() for rho in (1e-3, 5e-4)]
        assert len(splits) == 2
        assert cold == warm

    def test_each_new_object_recomputed(self, monkeypatch):
        # each series here is built by one constructor call, so it takes the
        # address (and so the id) of the last one freed; only the kept H
        # stops a new series of other content from passing for it
        splits = count_splits(monkeypatch)
        for n, eps in enumerate(np.linspace(0.01, 0.5, 30), start=1):
            H = FourierTaylorSeries(D, {((0, 0), (1, 0)): W[0], ((0, 0), (0, 1)): W[1],
                                        ((1, -1), (2, 0)): eps, ((-1, 1), (2, 0)): eps})
            f = perturbation(H, OMEGA)
            assert len(splits) == n
            assert len(f) == 2 and np.all(f.C == eps)
            del H, f

    def test_other_frequency_checked_after_a_kept_success(self):
        H = FourierTaylorSeries.linear(OMEGA) + F_EDGES
        assert perturbation(H, OMEGA) == F_EDGES
        for omega in ((1.0, 2.0**0.5), (W[0] + 1e-3, W[1])):
            with pytest.raises(PreconditionError, match="linear part does not match"):
                run_pipeline(H, omega, 0.5, 1.0, HC65, 1e-3)
        with pytest.raises(PreconditionError, match="^series has d = 2, frequency has d = 3$"):
            perturbation(H, (*W, 1.0))
        assert perturbation(H, OMEGA) == F_EDGES

    def test_complex_series_fails_every_call(self):
        H = FourierTaylorSeries.linear(OMEGA) + F_EDGES * 1e-3j
        for _ in range(3):
            with pytest.raises(NumericalFault, match="^pipeline requires a real-valued series$"):
                run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 1e-3)


class TestKeepLast:
    """ftseries.keep_last, and the rho-independent work each keep site holds."""

    @staticmethod
    def counted():
        calls = []

        @keep_last
        def norm(P, hc):
            calls.append((P, hc))
            return len(calls)

        return norm, calls

    def test_hit_on_the_same_series_and_equal_values(self):
        norm, calls = self.counted()
        P = cosine(D, (1, 0), m=(2, 0))
        assert [norm(P, HC65), norm(P, HolderClass(6.5, 2))] == [1, 1]
        # a keyword call is a key of its own, and repeats like a positional one
        assert [norm(P, hc=HC65), norm(P, hc=HolderClass(6.5, 2))] == [2, 2]
        assert len(calls) == 2

    def test_miss_on_an_equal_series_or_other_values(self):
        norm, calls = self.counted()
        P = cosine(D, (1, 0), m=(2, 0))
        twin = cosine(D, (1, 0), m=(2, 0))
        assert twin == P and twin is not P
        assert [norm(P, HC65), norm(twin, HC65), norm(twin, HC6), norm(twin, HC6)] == [1, 2, 3, 3]
        f, linear = stabpipe._perturbation(F_EDGES + FourierTaylorSeries.linear(W), W)
        other = (W[0], W[1] + 1e-12)
        g, other_linear = stabpipe._perturbation(F_EDGES + FourierTaylorSeries.linear(W), other)
        assert g == f and g is not f and other_linear != linear

    def test_a_raising_call_keeps_nothing(self):
        calls = []

        @keep_last
        def check(x):
            calls.append(x)
            if x < 0:
                raise ValueError("negative")
            return x

        assert check(1) == 1
        for _ in range(2):
            with pytest.raises(ValueError):
                check(-1)
        assert check(1) == 1 and calls == [1, -1, -1]
        low = cosine(D, (1, 0), m=(1, 0))
        good = cosine(D, (1, 0), m=(2, 0))
        for _ in range(2):
            with pytest.raises(PreconditionError, match="Taylor orders < 2"):
                taylor_split(low, HC65, 0.1)
        assert taylor_split(good, HC65, 0.1).P == good

    def test_sites_keep_only_rho_independent_work(self, monkeypatch):
        H = build_test_hamiltonian(HC65, seed=1)
        f = perturbation(H, OMEGA) + cosine(D, (2, 0), m=(5, 0))
        first, second = taylor_split(f, HC65, 1e-3), taylor_split(f, HC65, 5e-4)
        assert second.P is first.P and second.Z is first.Z
        assert second.Z_bound == stabpipe.theta_gradient_majorant(first.Z, 5e-4) != first.Z_bound
        masses = []
        original = FourierTaylorSeries.masses
        monkeypatch.setattr(FourierTaylorSeries, "masses",
                            lambda *args: masses.append(1) or original(*args))
        cmax = coefficient_norm_max(first.P, HC65)
        assert coefficient_norm_max(second.P, HC65) == cmax and masses == [1]
        assert coefficient_norm_max(first.P, HolderClass(6.7, 2)) != cmax and masses == [1, 1]
        linear = stabpipe._perturbation(H, OMEGA)[1]
        assert stabpipe._perturbation(H, W)[1] is linear
        assert linear == FourierTaylorSeries.linear(OMEGA)

    def test_interleaved_ladders_match_cold_runs(self):
        # each cold rung runs on a freshly built H, so nothing kept applies
        ladder = (1e-3, 5e-4, 3e-4)

        def run(H, rho):
            report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho)
            nf = report.normal_form
            return report.to_text(), series_bytes(nf.h), series_bytes(nf.f_star)

        cold = {seed: [run(build_test_hamiltonian(HC65, seed=seed), rho) for rho in ladder]
                for seed in (0, 1)}
        H0, H1 = (build_test_hamiltonian(HC65, seed=seed) for seed in (0, 1))
        warm = {0: [], 1: []}
        for rho in ladder:
            for seed, H in ((0, H0), (1, H1), (0, H0)):
                warm[seed].append(run(H, rho))
        assert warm[1] == cold[1]
        assert warm[0][::2] == warm[0][1::2] == cold[0]


def series_bytes(series):
    return series.K.tobytes() + series.M.tobytes() + series.C.tobytes()


class TestRepeatable:
    """run_pipeline keeps only the rho-independent work of the last H between
    calls (f and omega.I, the Taylor split's P and Z, P's coefficient norm):
    the benchmark ladder's reports repeat bit for bit, and its stages are
    called as often, on the same H or on a fresh equal one."""

    def ladder(self, H):
        runs = []
        for rho in (1e-3, 5e-4, 3e-4):
            report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho)
            nf = report.normal_form
            assert nf.params.widths == AnalyticityWidths(report.schedule.s, rho)
            if nf.certified:
                assert nf.contraction <= nf.target_contraction
            runs.append((report.to_text(), series_bytes(nf.h), series_bytes(nf.f_star)))
        return runs

    def test_ladder_repeats_warm_and_cold(self):
        H = build_test_hamiltonian(HC65, seed=1)
        first = self.ladder(H)
        assert self.ladder(H) == first
        fresh = build_test_hamiltonian(HC65, seed=1)
        assert fresh is not H and fresh == H
        assert self.ladder(fresh) == first

    def test_ladder_stage_calls_repeat_warm_and_cold(self, monkeypatch):
        # the benchmark's traced run requires every pass to call its wrapped
        # stages as often as the first did: a stage may keep work inside it,
        # but is itself called on every rung, warm or cold
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("taylor_split", "coefficient_norm_max", "smooth_coefficients",
                     "diophantine_constant", "resonant_normal_form", "remainder_bounds",
                     "predicted_stability_time"):
            count(stabpipe, name)
        count(normalform, "lie_transform")
        count(normalform, "solve_homological")
        count(FourierTaylorSeries, "poisson_bracket")
        H = build_test_hamiltonian(HC65, seed=1)
        self.ladder(H)
        cold, calls = calls, {}
        self.ladder(H)
        assert len(cold) == 10 and all(cold.values())
        assert calls == cold


class TestPipeline:
    def test_integrable_hamiltonian(self):
        # nothing to certify: no schedule, and an infinite predicted time
        H = FourierTaylorSeries.linear(OMEGA)
        for rho in (1e-3, 1e-8, 1e-13):
            report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho)
            assert report.failure is None
            assert report.schedule is None
            assert report.gates == ()
            assert report.prediction.t_theorem == math.inf
            assert report.bounds is None
            assert "schedule." not in report.to_text()

    @pytest.mark.parametrize(
        "rho, gamma, tau, name",
        [(math.nan, 0.5, 1.0, "rho"), (1e-3, 0.0, 1.0, "gamma"), (1e-3, 0.5, -1.0, "tau")],
    )
    def test_inputs_checked_before_any_stage(self, rho, gamma, tau, name):
        # H's linear part does not match OMEGA, so a stage would fail otherwise
        H = FourierTaylorSeries.linear((1.0, 2.0))
        with pytest.raises(ValueError, match=f"^{name} must "):
            run_pipeline(H, OMEGA, gamma, tau, HC65, rho)

    def test_frequency_checked_before_any_stage(self):
        # the linear part check would refuse this H first otherwise
        H = FourierTaylorSeries.linear((1.0, 2.0))
        with pytest.raises(ValueError, match="^frequency components must be finite$"):
            run_pipeline(H, (1.0, math.inf), 0.5, 1.0, HC65, 1e-3)

    def test_certifying_run(self):
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho=1e-3)
        assert report.failure is None, report.failure
        assert [name for name, _, _ in report.gates] == GATE_NAMES
        assert all(value / bound <= 1.0 for _, value, bound in report.gates)
        assert report.normal_form.certified
        assert report.normal_form.contraction <= report.normal_form.target_contraction
        assert report.bounds.dominant == "smoothing_gap"
        assert report.prediction.t_theorem > 0
        text = report.to_text()
        assert "nf.certified = 1" in text
        assert "nf.stop = certified" in text
        assert "failure = none" in text
        nf = report.normal_form
        assert (f"gate.contraction = {nf.contraction!r} / {nf.target_contraction!r} = "
                f"{nf.contraction / nf.target_contraction!r}") in text.splitlines()

    def test_precision_frontier_stalls(self):
        # the acceptance H one rung below the certified ladder: the normal
        # form stalls above its target, and the contraction gate says so
        hc = HolderClass(6.5, 2)
        H = build_test_hamiltonian(hc, seed=0, amplitude=1e-12, j_max=8)
        report = run_pipeline(H, OMEGA, 0.5, 1.0, hc, rho=1e-9)
        nf = report.normal_form
        assert nf.stop == "stalled" and not report.certified
        assert nf.contraction > nf.target_contraction
        assert report.failure == "failed gates: contraction"
        assert "nf.stop = stalled" in report.to_text()

    def test_gates_match_the_checks_they_stand_for(self):
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho=1e-3)
        sch, nf = report.schedule, report.normal_form
        assert report.gates == (
            ("rho_ok", 1e-3, RHO_MAX),
            ("s_in_range", sch.s, 1.0),
            ("dominance", 5.0, 6.5),
            ("gamma_K", 0.5, 1.0),
            ("K_sigma", 6.0, sch.K * sch.s),
            ("smallness", nf.f_initial_norm, nf.params.smallness_threshold),
            ("contraction", nf.contraction, nf.target_contraction),
        )

    def test_flagged_schedule_reported_not_raised(self):
        H = build_test_hamiltonian(HC65, seed=0, amplitude=1e-12, j_max=4)
        report = run_pipeline(H, OMEGA, 0.5, 1.0, HC65, rho=0.3)
        # both schedule gates fail at 0.3, and no later stage ran
        assert report.failure == "failed gates: rho_ok, s_in_range"
        assert not report.certified
        assert [name for name, _, _ in report.gates] == GATE_NAMES[:2]
        s = report.schedule.s
        assert f"gate.s_in_range = {s!r} / 1.0 = {s!r}" in report.to_text().splitlines()

    def test_coefficient_norm_max_matches_definition(self):
        # max over m of (1 + 2^{1-mu}) sum_k |a_m^_k| (1 + (2 pi |k|_1)^ell), each
        # a_m built as a series of its own: exactly the one-pass value.  The
        # random P's masses span six decades, so a sum in another order differs.
        rng = np.random.default_rng(5)
        rough = FourierTaylorSeries(D, {
            (tuple(rng.integers(-9, 10, size=D).tolist()), m): 10.0 ** rng.uniform(-6, 0)
            for m in ((2, 0), (1, 2), (0, 4)) for _ in range(60)
        })
        for ell in (5.5, 6.5, 7.5):
            hc = HolderClass(ell, D)
            for seed in (0, 2, None):
                if seed is None:
                    P = rough
                else:
                    H = build_test_hamiltonian(hc, seed=seed)
                    P = taylor_split(perturbation(H, OMEGA), hc, 1e-3).P
                by_m = {}
                for (k, m), c in P.items():
                    by_m.setdefault(m, {})[(k, (0, 0))] = c
                assert len(by_m) > 1
                majorants = []
                for terms in by_m.values():
                    a_m = FourierTaylorSeries(D, terms)
                    total = a_m.mass(lambda nk, nm: 1.0 + (2.0 * math.pi * nk) ** ell)
                    majorants.append((1.0 + 2.0 ** (1.0 - hc.mu)) * total)
                    assert holder_norm_majorant(a_m, hc) == majorants[-1]
                assert coefficient_norm_max(P, hc) == max(majorants)
        assert coefficient_norm_max(FourierTaylorSeries(D), HC65) == 0.0


class TestStageTags:
    """Each pipeline stage wraps its preconditions and numerical faults in a
    PipelineStageError tagged with the stage; other errors pass unwrapped."""

    def test_order_one_term_tagged_taylor_split(self):
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (1, 0), m=(1, 0), amplitude=1e-12
        )
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 1e-3)
        assert info.value.stage == "taylor_split"
        assert isinstance(info.value.cause, PreconditionError)

    def test_empty_polynomial_part_tagged_taylor_split(self):
        # orders >= q - 1 = 5 only: rejected by name, not as a zero norm in the schedule
        H = FourierTaylorSeries.linear(OMEGA) + cosine(
            D, (2, 0), m=(5, 0), amplitude=1e-12
        )
        with pytest.raises(PipelineStageError, match=r"Taylor orders 2\.\.4") as info:
            run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 1e-3)
        assert info.value.stage == "taylor_split"
        assert isinstance(info.value.cause, PreconditionError)

    def test_gamma_above_certified_tagged_certificate(self):
        H = build_test_hamiltonian(HC65, seed=0)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(H, OMEGA, 5.0, 1.0, HC65, 1e-3)
        assert info.value.stage == "certificate"
        assert "gamma_K" in str(info.value)

    def test_numerical_fault_tagged_normal_form(self, monkeypatch):
        def diverge(*args):
            raise NumericalFault("bracket norm grew")

        monkeypatch.setattr(stabpipe, "resonant_normal_form", diverge)
        H = build_test_hamiltonian(HC65, seed=0)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 1e-3)
        assert info.value.stage == "normal_form"
        assert isinstance(info.value.cause, NumericalFault)

    def test_dominance_gate_fails_before_costly_stages(self, monkeypatch):
        # the gate 3 + 2/tau = 7 at tau = 0.5 depends on ell and tau alone
        def costly(*args):
            raise AssertionError("a costly stage ran before the dominance gate")

        for name in ("smooth_coefficients", "diophantine_constant", "resonant_normal_form"):
            monkeypatch.setattr(stabpipe, name, costly)
        H = build_test_hamiltonian(HC65, seed=0)
        with pytest.raises(PipelineStageError, match=r"ell = 6\.5 must exceed") as info:
            run_pipeline(H, OMEGA, 0.01, 0.5, HC65, 1e-4)
        assert info.value.stage == "remainder_bounds"
        assert isinstance(info.value.cause, PreconditionError)

    def test_programming_error_passes_unwrapped(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a stage fault")

        monkeypatch.setattr(stabpipe, "remainder_bounds", broken)
        H = build_test_hamiltonian(HC65, seed=0)
        with pytest.raises(TypeError):
            run_pipeline(H, OMEGA, 0.5, 1.0, HC65, 1e-3)
