"""Profile families: densities, Mellin closed forms against quadrature, moments."""

import copy
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from gflab.errors import DomainError
from gflab.mellin import ContourQuad
from gflab.model import (
    Dirac,
    LogGaussian,
    LogHeaviside,
    ModelParams,
    _gauss_legendre,
    dilation_window,
    first_true,
    format_profile,
    mellin_U0,
    moment,
    parse_profile,
    profile_eval_x,
    profile_eval_y,
    support_y,
)

GAUSS = LogGaussian(mu=0.0, sigma=0.1, mass=1.0)
HEAVI = LogHeaviside(a=-0.2, b=0.0, height=1.0)
ATOM = Dirac(x0=0.5, weight=2.0)


def n0_quadrature(p, f=lambda y: 1.0):
    """Independent oracle: adaptive quadrature of f(y) n(0, y) over the support."""
    if isinstance(p, LogGaussian):
        lo, hi = p.mu - 14 * p.sigma, p.mu + 14 * p.sigma
    else:
        lo, hi = p.a, p.b
    val, _ = quad(lambda y: f(y) * profile_eval_y(p, y), lo, hi, epsabs=1e-13, epsrel=1e-12)
    return val


class TestValidation:
    def test_params_invariants(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=1.0)
        with pytest.raises(DomainError):
            ModelParams(b=0.0)
        with pytest.raises(DomainError):
            ModelParams(g=-0.1)
        assert ModelParams(alpha=2.0).log_alpha == math.log(2.0)

    @pytest.mark.parametrize("name", ["alpha", "b", "g"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_must_be_finite(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    def test_profile_invariants(self):
        with pytest.raises(DomainError):
            LogGaussian(0.0, -0.1)
        with pytest.raises(DomainError):
            LogHeaviside(0.0, -1.0)
        with pytest.raises(DomainError):
            Dirac(-1.0)

    @pytest.mark.parametrize("mass, sigma", [(1.7e308, 0.1), (1e308, 0.1), (1.0, 1e-310),
                                             (math.inf, 1.0)])
    def test_gaussian_scale_must_be_finite(self, mass, sigma):
        # n(0, y) peaks at mass / (sigma sqrt(2 pi)); where that overflows, inf * 0 is NaN
        with pytest.raises(DomainError, match=r"scale mass / \(sigma sqrt\(2 pi\)\) overflows"):
            LogGaussian(0.0, sigma, mass)

    def test_dirac_has_no_density(self):
        with pytest.raises(DomainError, match="no pointwise density"):
            profile_eval_x(ATOM, 1.0)
        with pytest.raises(DomainError, match="no pointwise density"):
            profile_eval_y(ATOM, 0.0)


# (type, fields, repr): every validated value type of the package
VALUE_TYPES = [
    (ModelParams, {"g": 0.0, "b": 1.0, "alpha": 2.0}, "ModelParams(g=0.0, b=1.0, alpha=2.0)"),
    (LogGaussian, {"mu": 0.0, "sigma": 0.1, "mass": 1.0},
     "LogGaussian(mu=0.0, sigma=0.1, mass=1.0)"),
    (LogHeaviside, {"a": -0.2, "b": 0.0, "height": 1.0},
     "LogHeaviside(a=-0.2, b=0.0, height=1.0)"),
    (Dirac, {"x0": 0.5, "weight": 2.0}, "Dirac(x0=0.5, weight=2.0)"),
    (ContourQuad, {"nu": 2.0, "tau_max": 90.0, "n_nodes": 25},
     "ContourQuad(nu=2.0, tau_max=90.0, n_nodes=25)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_TYPES,
                         ids=[cls.__name__ for cls, *_ in VALUE_TYPES])
class TestValueTypes:
    def test_fields_cannot_be_assigned(self, cls, fields, text):
        v = cls(**fields)
        for name in [*fields, *(["log_alpha"] if cls is ModelParams else [])]:
            with pytest.raises(AttributeError):
                setattr(v, name, 3.0)
        assert v == cls(**fields)

    def test_equal_fields_give_equal_objects_and_hashes(self, cls, fields, text):
        a, b = cls(**fields), cls(**fields)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        first = next(iter(fields))
        assert a != cls(**{**fields, first: fields[first] + 0.1})
        assert a != tuple(fields.values())

    def test_repr_is_the_dataclass_text(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_copies_and_pickles_are_equal(self, cls, fields, text):
        v = cls(**fields)
        for other in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(other) is cls and other == v and repr(other) == text
            if cls is ModelParams:
                assert other.log_alpha == v.log_alpha == math.log(2.0)


def test_profile_families_with_equal_fields_differ():
    assert LogGaussian(0.0, 0.1, 1.0) != LogHeaviside(0.0, 0.1, 1.0)
    assert len({LogGaussian(0.0, 0.1, 1.0), LogGaussian(0.0, 0.1, 1.0), ModelParams()}) == 2


class TestDensities:
    def test_gaussian_peak(self):
        assert profile_eval_x(GAUSS, 1.0) == pytest.approx(3.989422804014327, rel=1e-12)
        assert profile_eval_y(GAUSS, 0.0) == pytest.approx(3.989422804014327, rel=1e-12)

    def test_gaussian_one_sigma(self):
        # gaussian pdf oracle at one sigma
        assert profile_eval_y(GAUSS, 0.1) == pytest.approx(2.4197072451914337, rel=1e-12)

    def test_heaviside_values(self):
        assert profile_eval_x(HEAVI, math.exp(-0.3)) == 0.0
        # x^-2 * height at x = e^{-0.1}, checked by hand
        assert profile_eval_x(HEAVI, math.exp(-0.1)) == pytest.approx(1.2214027581601699, rel=1e-12)
        assert profile_eval_y(HEAVI, -0.1) == 1.0
        assert profile_eval_y(HEAVI, 0.05) == 0.0

    def test_x_y_consistency(self):
        # n(0, y) = e^{2y} u0(e^y) pointwise on a thousand points
        ys = np.linspace(-3.0, 2.0, 1001)
        for p in (GAUSS, HEAVI):
            lhs = profile_eval_y(p, ys)
            rhs = np.exp(2.0 * ys) * profile_eval_x(p, np.exp(ys))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_positive_size_required(self):
        with pytest.raises(DomainError):
            profile_eval_x(GAUSS, -1.0)


class TestDilationWindow:
    """First and last k with y + k log alpha in the support, against testing each k."""

    @pytest.mark.parametrize("p", [GAUSS, HEAVI, LogHeaviside(-1.0, 0.0, 1.0)],
                             ids=["gaussian", "heaviside-0.2", "heaviside-1"])
    @pytest.mark.parametrize("alpha", [1.3, 2.0, 3.0, 7.0])
    def test_matches_membership_count(self, p, alpha):
        la = math.log(alpha)
        lo, hi = support_y(p)
        hits = np.arange(-5, 300)
        # exact lattice hits on either edge, and points in between
        y = np.concatenate([hi - hits * la, lo - hits * la, np.linspace(-60.0, 5.0, 997)])
        ks = np.arange(-40, 400)
        arg = y[:, None] + ks * la
        inside = (arg >= lo) & (arg <= hi)
        count = inside.sum(axis=1)
        has = count > 0
        first, last = dilation_window(p, la, y)
        np.testing.assert_array_equal(np.maximum(last - first + 1.0, 0.0), count)
        np.testing.assert_array_equal(first[has], ks[inside[has].argmax(axis=1)])
        np.testing.assert_array_equal(last[has], ks[-1 - inside[has][:, ::-1].argmax(axis=1)])
        for i in range(0, y.size, 41):
            assert dilation_window(p, la, float(y[i])) == (first[i], last[i])


    @pytest.mark.parametrize("alpha", [1.3, 2.0, 7.0])
    def test_a_float_gives_the_array_floats(self, alpha):
        # a float y is taken in float arithmetic, an array y in numpy's
        la = math.log(alpha)
        for p in (GAUSS, HEAVI):
            lo, hi = support_y(p)
            hits = np.arange(-5, 300)
            y = np.concatenate([hi - hits * la, lo - hits * la, np.linspace(-60.0, 5.0, 997)])
            first, last = dilation_window(p, la, y)
            for i, y_i in enumerate(y.tolist()):
                assert dilation_window(p, la, y_i) == (first[i], last[i])


class TestFirstTrue:
    def test_any_guess_finds_the_first_k(self):
        # pred(k) is k >= answer; the search never asks at k <= start
        for start in (-3, 0, 5):
            for answer in range(start + 1, start + 40):
                for guess in (None, *range(start - 5, start + 70, 3)):
                    asked = []

                    def pred(k):
                        asked.append(k)
                        return k >= answer

                    assert first_true(pred, start, guess) == answer
                    assert min(asked) > start

    def test_a_close_guess_costs_few_evaluations(self):
        for answer in (10, 1000, 10**6):
            for miss in (-7, -1, 0, 1, 7):
                calls = []
                first_true(lambda k: calls.append(k) or k >= answer, 0, answer + miss)
                assert len(calls) <= 2 * max(abs(miss), 1).bit_length() + 2


def newton_gauss_legendre(n):
    """Oracle for the tabulated rules: Gauss-Legendre nodes (ascending) and weights
    on [-1, 1] by four Newton steps on P_n from the cosine guesses, which reach
    rounding for n <= 128 (the construction the tables were made with)."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for step in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)      # P_n'(x)
        if step < 4:
            x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


class TestGaussLegendreTable:
    @pytest.mark.parametrize("n", [64, 128])
    def test_tabulated_rule_is_the_newton_rule(self, n):
        # within 1 ulp, not bitwise: further Newton steps toggle the last bit of a
        # few nodes, so another platform's libm may land one ulp away
        x, w = _gauss_legendre(n)
        ref_x, ref_w = newton_gauss_legendre(n)
        np.testing.assert_array_max_ulp(x, ref_x, maxulp=1)
        np.testing.assert_array_max_ulp(w, ref_w, maxulp=1)

    @pytest.mark.parametrize("n", [64, 128])
    def test_halves_mirror_exactly(self, n):
        x, w = _gauss_legendre(n)
        assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0.0)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_numpy_and_is_exact_to_degree_2n_minus_1(self, n):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=2e-16)
        # leggauss's end weights are themselves off by about 1e-11 relative
        np.testing.assert_allclose(w, ref_w, rtol=1e-10)
        for k in range(n):
            assert math.fsum(w * x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), abs=2e-15)
            assert abs(math.fsum(w * x ** (2 * k + 1))) <= 2e-15


class TestMellin:
    def test_initial_mass_is_transform_at_two(self):
        assert mellin_U0(GAUSS, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_heaviside_removable_singularity(self):
        assert mellin_U0(HEAVI, 2.0) == pytest.approx(0.2, rel=1e-12)
        # continuity across the expansion switch
        near = mellin_U0(HEAVI, 2.0 + 1e-6 * 1.0001)
        inside = mellin_U0(HEAVI, 2.0 + 1e-6 * 0.9999)
        assert near == pytest.approx(inside, rel=1e-9)

    def test_gaussian_third_moment_form(self):
        assert mellin_U0(GAUSS, 3.0) == pytest.approx(1.005012520859401, rel=1e-12)

    @pytest.mark.parametrize("p", [GAUSS, HEAVI], ids=["gaussian", "heaviside"])
    @pytest.mark.parametrize("re_s", [0.0, 1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("im_s", [-20.0, -7.0, 0.0, 7.0, 20.0])
    def test_closed_form_matches_quadrature(self, p, re_s, im_s):
        s = complex(re_s, im_s)
        # U0(s) = int n(0, y) e^{y (s - 2)} dy after substituting y = log x
        val_re = n0_quadrature(p, lambda y: math.exp(y * (re_s - 2.0)) * math.cos(y * im_s))
        val_im = n0_quadrature(p, lambda y: math.exp(y * (re_s - 2.0)) * math.sin(y * im_s))
        closed = mellin_U0(p, s)
        scale = max(abs(closed), 1e-30)
        assert abs(closed - complex(val_re, val_im)) / scale < 1e-8

    def test_dirac_closed_form(self):
        s = complex(2.5, 3.0)
        expected = 2.0 * np.exp((s - 1.0) * math.log(0.5))
        assert mellin_U0(ATOM, s) == pytest.approx(expected, rel=1e-14)

    def test_array_input(self):
        s = np.array([2.0 + 0j, 3.0 + 1j])
        out = mellin_U0(GAUSS, s)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(mellin_U0(GAUSS, 2.0 + 0j), rel=1e-15)


class TestMoments:
    def test_first_moment_is_mass(self):
        assert moment(GAUSS, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_dirac_first_moment(self):
        assert moment(ATOM, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_heaviside_zeroth_moment(self):
        # quadrature oracle gave e^{0.2} - 1
        assert moment(HEAVI, 0.0) == pytest.approx(0.22140275816016985, rel=1e-12)
        oracle, _ = quad(lambda x: profile_eval_x(HEAVI, x), math.exp(-0.25), 1.0,
                         epsabs=1e-14)
        assert moment(HEAVI, 0.0) == pytest.approx(oracle, rel=1e-10)

    def test_moment_agrees_with_transform(self):
        for p in (GAUSS, HEAVI, ATOM):
            for q in (0.0, 0.5, 1.0, 2.0):
                assert moment(p, q) == mellin_U0(p, complex(q + 1.0)).real

    @pytest.mark.parametrize("p", [GAUSS, HEAVI], ids=["gaussian", "heaviside"])
    def test_initial_mass_consistency(self, p):
        # int n(0, y) dy = moment(p, 1) = U0(2), all three to 1e-10
        mass = n0_quadrature(p)
        assert mass == pytest.approx(moment(p, 1.0), rel=1e-10)
        assert mass == pytest.approx(mellin_U0(p, 2.0).real, rel=1e-10)


class TestProfileSyntax:
    @pytest.mark.parametrize("p", [GAUSS, HEAVI, ATOM, LogGaussian(0.3, 0.25, 2.5)])
    def test_round_trip(self, p):
        assert parse_profile(format_profile(p)) == p

    def test_parse_examples(self):
        assert parse_profile("loggaussian mu=0 sigma=0.1 mass=1") == GAUSS
        assert parse_profile("dirac x0=0.5 weight=2") == ATOM

    @pytest.mark.parametrize("bad", [
        "gauss mu=0", "loggaussian mu=0 sigma=0.1 mass=1 extra=2",
        "loggaussian mu", "loggaussian sigma=0.1", "loggaussian mu=zz sigma=1",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_profile(bad)
