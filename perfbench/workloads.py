"""The benchmark's three workloads: seeded inputs, timed operations, reference checks.

Each workload is one closed-loop client: a round runs its operations one after
another, and the runner repeats rounds.  Inputs are drawn once from the
workload seed, so every round repeats the same work; domain geometry and
problem sizes are fixed.  References are computed in :meth:`prepare`, before
any round, and never inside a timed call.

Every operation has a check.  Where an independent reference exists (closed
forms, a quadrature the benchmark writes itself, an exact domain standing in
for an implicit one, or the in-process library call a CLI report must equal)
the check compares against it; Monte Carlo estimates must lie within
``K_SE`` standard errors plus an allowance for their known biases.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from specs import CLI_SPEC_FILES

K_SE = 4.0  # Monte Carlo checks: |estimate - exact| <= K_SE * std_error + bias
WALKERS = 100_000
STOP = 1e-4
STOP_BIAS = 10.0 * STOP  # O(stop_tolerance) boundary-layer allowance on a cap measure


class Mismatch(Exception):
    """An operation's output missed its reference."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _circle(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _ellipse_point(theta: float) -> np.ndarray:
    """Boundary point of the ellipse (2, 1) that every workload uses."""
    return np.array([2.0 * math.cos(theta), math.sin(theta)])


def _sphere_point(rng: np.random.Generator) -> np.ndarray:
    return _unit(rng.normal(size=3))


def _disc_cap_measure(x: np.ndarray, center_angle: float, chord: float) -> float:
    """Harmonic measure of a chordal cap of the unit circle: 64-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = 2.0 * math.asin(chord / 2.0)
    theta = center_angle + half * nodes
    sq = (np.cos(theta) - x[0]) ** 2 + (np.sin(theta) - x[1]) ** 2
    return float(half * np.sum(weights * (1.0 - x @ x) / (2.0 * math.pi * sq)))


def _ball3_cap_measure(x: np.ndarray, center: np.ndarray, chord: float) -> float:
    """Harmonic measure of a chordal cap of the unit sphere.

    Gauss-Legendre in the cosine of the angle from the cap center times the
    trapezoidal rule in azimuth; the integrand is smooth because x stays
    well inside the ball.
    """
    mu_lo = 1.0 - chord * chord / 2.0  # cos of the cap's angular radius
    t, w = np.polynomial.legendre.leggauss(64)
    mu = 0.5 * (1.0 - mu_lo) * t + 0.5 * (1.0 + mu_lo)
    wmu = 0.5 * (1.0 - mu_lo) * w
    m = 128
    phi = 2.0 * math.pi * np.arange(m) / m
    helper = np.array([1.0, 0.0, 0.0]) if abs(center[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = _unit(helper - (helper @ center) * center)
    e2 = np.cross(center, e1)
    s = np.sqrt(1.0 - mu * mu)
    pts = (mu[:, None, None] * center
           + s[:, None, None] * (np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2))
    dist = np.linalg.norm(pts - x, axis=2)
    dens = (1.0 - x @ x) / (4.0 * math.pi * dist**3)
    return float(np.sum(wmu[:, None] * dens) * (2.0 * math.pi / m))


class EllipseHarmonicMeasure:
    """Exact harmonic measure of the ellipse x^2/a^2 + y^2/b^2 < 1 (a > b).

    Harmonic measure is conformally invariant, and the ellipse maps onto the
    unit disc by ``f(z) = k^(1/2) sn((2K/pi) asin(z/c); k)`` with foci
    ``+-c`` and modulus ``k`` fixed by ``K'/K = (4/pi) artanh(b/a)``.  The
    constructor checks ``|f| = 1`` on the boundary before the map is used.
    """

    def __init__(self, a: float, b: float):
        from scipy.special import ellipk

        self.a, self.b, self.c = a, b, math.sqrt(a * a - b * b)
        target = 4.0 / math.pi * math.atanh(b / a)
        lo, hi = 1e-12, 1.0 - 1e-12  # K'/K decreases in the parameter m = k^2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ellipk(1.0 - mid) / ellipk(mid) > target else (lo, mid)
        self.m = 0.5 * (lo + hi)
        self.K = float(ellipk(self.m))
        theta = np.linspace(0.0, 2.0 * math.pi, 257)
        err = np.max(np.abs(np.abs(self.map(self.point(theta))) - 1.0))
        if not err < 1e-12:
            raise RuntimeError(f"ellipse conformal map misses the unit circle by {err:.1e}")

    def point(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.stack([self.a * np.cos(theta), self.b * np.sin(theta)], axis=-1)

    def map(self, pts) -> np.ndarray:
        from scipy.special import ellipj

        pts = np.atleast_2d(pts)
        w = (2.0 * self.K / math.pi) * np.arcsin((pts[:, 0] + 1j * pts[:, 1]) / self.c)
        s, c, d, _ = ellipj(w.real, self.m)
        s1, c1, d1, _ = ellipj(w.imag, 1.0 - self.m)  # sn of a complex argument (A&S 16.21.2)
        sn = (s * d1 + 1j * c * d * s1 * c1) / (c1 * c1 + self.m * s * s * s1 * s1)
        return self.m**0.25 * sn

    def cap_ends(self, theta0: float, chord: float) -> tuple[float, float]:
        """Parameters of the two boundary points at chordal distance ``chord`` from theta0."""
        center = self.point(theta0)
        ends = []
        for sign in (-1.0, 1.0):
            gap = lambda t: float(np.sum((self.point(theta0 + sign * t) - center) ** 2)) - chord**2
            lo, hi = 0.0, chord / (4.0 * self.a)
            while gap(hi) < 0.0:
                lo, hi = hi, 2.0 * hi
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
            ends.append(theta0 + sign * 0.5 * (lo + hi))
        return ends[0], ends[1]

    def cap_measure(self, x, theta0: float, chord: float) -> float:
        """Harmonic measure from ``x`` of the chordal cap around ``point(theta0)``."""
        t1, t2 = self.cap_ends(theta0, chord)
        w0 = self.map(x)[0]
        alpha = np.unwrap(np.angle(self.map(self.point([t1, theta0, t2]))))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        mid, half = 0.5 * (alpha[2] + alpha[0]), 0.5 * (alpha[2] - alpha[0])
        dens = (1.0 - abs(w0) ** 2) / (2.0 * math.pi * np.abs(np.exp(1j * (mid + half * nodes)) - w0) ** 2)
        return float(half * np.sum(weights * dens))

    def cap_length(self, theta0: float, chord: float) -> float:
        t1, t2 = self.cap_ends(theta0, chord)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        mid, half = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
        th = mid + half * nodes
        return float(half * np.sum(weights * np.hypot(self.a * np.sin(th), self.b * np.cos(th))))


def _check_cap(est, exact: float, extra_bias: float = 0.0):
    tol = K_SE * est.std_error + STOP_BIAS + extra_bias
    expect(abs(est.estimate - exact) <= tol,
           f"cap measure {est.estimate:.6f} vs exact {exact:.6f} (tolerance {tol:.2e})")


class Workload:
    """Base class: ``ops()`` lists one round's operations."""

    def __init__(self, pk, domains: dict, seed: int, ctx):
        self.pk = pk
        self.d = domains
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)

    def wos_seed(self) -> int:
        return int(self.rng.integers(0, 2**63))

    def prepare(self):
        """Compute references (untimed, untraced)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


class Wos(Workload):
    """In-process walk-on-spheres, plus queries and a short walk on the implicit ellipse.

    The explicit part runs cap measures on four exact-distance domains and a
    WosKernel sweep.  The implicit part exercises the general-domain solver
    at a size that keeps it a minority of the round.
    """

    TRUNCATION = 20.0
    SWEEP_DELTAS = (0.2, 0.1, 0.05)
    SWEEP_CAP = 0.05
    QUERIES = 2
    WALK_ORIGIN = np.array([0.6, 0.3])
    # The implicit walk is fixed: with one walker its step count (per-walk
    # coefficient of variation ~0.7) would otherwise swing the round's time
    # from seed to seed.  Its query points follow the seed.
    WALK_SEED = 3  # three steps from WALK_ORIGIN
    WALK_STOP = 1e-3

    def prepare(self):
        self._prepare_explicit()
        self._prepare_implicit()

    def ops(self):
        return self._explicit_ops() + self._implicit_ops()

    def _prepare_explicit(self):
        pk, rng = self.pk, self.rng
        cfg = lambda: pk.WosConfig(walkers=WALKERS, seed=self.wos_seed(), stop_tolerance=STOP)
        # Disc and ball at a fixed radius (the walk cost is rotation invariant).
        self.disc_x = 0.5 * _circle(rng.uniform(0, 2 * math.pi))
        angle = rng.uniform(0, 2 * math.pi)
        self.disc_cap = (_circle(angle), 0.3, cfg())
        self.disc_exact = _disc_cap_measure(self.disc_x, angle, 0.3)

        self.ball_x = 0.5 * _sphere_point(rng)
        center = _sphere_point(rng)
        self.ball_cap = (center, 0.5, cfg())
        self.ball_exact = _ball3_cap_measure(self.ball_x, center, 0.5)

        # Halfplane at a fixed height (the walk cost is translation invariant).
        u = rng.uniform(-1.0, 1.0)
        v = u + rng.uniform(-1.0, 1.0)
        self.half_x = np.array([u, 1.0])
        self.half_cap = (np.array([v, 0.0]), 0.5, cfg())
        a, b = v - 0.5, v + 0.5
        self.half_exact = (math.atan(b - u) - math.atan(a - u)) / math.pi
        # A truncated walk has left |z| > R; from there the cap subtends at most
        # (b - a) / (R - max|a|, |b|) radians, which bounds the hits it could still make.
        self.half_trunc_bound = (b - a) / (math.pi * (self.TRUNCATION - max(abs(a), abs(b))))

        # Ellipse from a fixed origin (the walk cost depends on it).
        exact = EllipseHarmonicMeasure(2.0, 1.0)
        self.ellipse_x = np.array([0.5, 0.2])
        theta = rng.uniform(0, 2 * math.pi)
        self.ellipse_cap = (exact.point(theta), 0.1, cfg())
        self.ellipse_exact = exact.cap_measure(self.ellipse_x, theta, 0.1)

        # Sweep along the inward normal at (0, 1); the reference kernel value is
        # the exact cap measure over the cap length, so no smoothing bias enters.
        self.sweep_cfg = pk.WosConfig(walkers=20_000, seed=self.wos_seed(), stop_tolerance=STOP)
        angles = math.pi / 2 + rng.uniform(-0.4, 0.4, size=4)
        self.sweep_targets = [exact.point(t) for t in angles]
        self.sweep_exact = [
            (exact.cap_measure([0.0, 1.0 - delta], t, self.SWEEP_CAP), exact.cap_length(t, self.SWEEP_CAP))
            for delta in self.SWEEP_DELTAS for t in angles
        ]

    def _explicit_ops(self):
        pk, d = self.pk, self.d

        def cap(domain, x, spec, **kw):
            center, chord, config = spec
            return lambda: pk.estimate_cap_measure(domain, x, center, chord, config, **kw)

        def check_half(est):
            trunc = est.truncated_walks / est.walkers_used
            _check_cap(est, self.half_exact, trunc * self.half_trunc_bound)

        def sweep():
            kernel = pk.WosKernel(d["ellipse"], self.sweep_cfg, cap_radius=self.SWEEP_CAP)
            return pk.normal_sweep(d["ellipse"], kernel, np.array([0.0, 1.0]),
                                   list(self.SWEEP_DELTAS), self.sweep_targets)

        def check_sweep(report):
            expect(len(report.records) == len(self.sweep_exact), f"{len(report.records)} records")
            for rec, (measure, length) in zip(report.records, self.sweep_exact):
                scale = rec.separation**2 / rec.delta  # kernel -> ratio
                want = measure / length * scale
                tol = K_SE * rec.std_error + STOP_BIAS / length * scale
                expect(abs(rec.ratio - want) <= tol,
                       f"sweep ratio {rec.ratio:.5f} vs exact {want:.5f} (tolerance {tol:.1e})")

        return [
            Op("disc_cap", cap(d["disc"], self.disc_x, self.disc_cap),
               lambda est: _check_cap(est, self.disc_exact)),
            Op("ball3_cap", cap(d["ball3"], self.ball_x, self.ball_cap),
               lambda est: _check_cap(est, self.ball_exact)),
            Op("halfplane_cap", cap(d["halfplane"], self.half_x, self.half_cap,
                                    truncation_radius=self.TRUNCATION), check_half),
            Op("ellipse_cap", cap(d["ellipse"], self.ellipse_x, self.ellipse_cap),
               lambda est: _check_cap(est, self.ellipse_exact)),
            Op("ellipse_wos_sweep", sweep, check_sweep),
        ]

    def _prepare_implicit(self):
        rng, exact = self.rng, self.d["ellipse"]
        self.sd_points = []
        for _ in range(self.QUERIES):
            r = rng.uniform(0.2, 0.9)
            t = rng.uniform(0, 2 * math.pi)
            self.sd_points.append(r * _ellipse_point(t))
        self.sd_exact = [exact.signed_distance(x) for x in self.sd_points]
        # Collar points: depth below the minimum curvature radius keeps the foot unique.
        self.proj_points = []
        for _ in range(self.QUERIES):
            t = rng.uniform(0, 2 * math.pi)
            p = _ellipse_point(t)
            inward = -_unit(np.array([p[0] / 2.0, 2.0 * p[1]]))
            self.proj_points.append(p + rng.uniform(0.02, 0.3) * inward)
        self.proj_exact = [exact.project_to_boundary(x)[0] for x in self.proj_points]
        self.walk_cfg = self.pk.WosConfig(walkers=1, seed=self.WALK_SEED,
                                          stop_tolerance=self.WALK_STOP)

    def _implicit_ops(self):
        imp = self.d["implicit"]
        ops = []
        for i, (x, want) in enumerate(zip(self.sd_points, self.sd_exact)):
            def check(got, want=want):
                expect(abs(got - want) <= 1e-9, f"signed distance {got!r} vs exact {want!r}")
            ops.append(Op(f"implicit_distance_{i}", lambda x=x: imp.signed_distance(x), check))
        for i, (x, want) in enumerate(zip(self.proj_points, self.proj_exact)):
            def check(got, want=want):
                foot = got[0]
                expect(np.linalg.norm(foot - want) <= 1e-9, f"foot {foot} vs exact {want}")
                expect(abs(foot[0] ** 2 / 4.0 + foot[1] ** 2 - 1.0) <= 1e-9, "foot off boundary")
            ops.append(Op(f"implicit_project_{i}", lambda x=x: imp.project_to_boundary(x), check))

        def check_walks(out):
            feet, truncated, _ = out
            expect(not truncated.any(), f"{int(truncated.sum())} truncated walks")
            rho = feet[:, 0] ** 2 / 4.0 + feet[:, 1] ** 2 - 1.0
            expect(np.all(np.abs(rho) <= 1e-9), f"exit foot |rho| = {np.abs(rho).max():.2e}")

        ops.append(Op("implicit_walk",
                      lambda: self.pk.run_walks(imp, self.WALK_ORIGIN, self.walk_cfg), check_walks))
        return ops


class ClosedForm(Workload):
    """Closed-form kernels, quadrature, blow-up gaps, ratio sweeps and the derivative report."""

    BATCH = 200_000
    EXTEND_RES = 2048
    HALF_HEIGHT = 0.05  # near-boundary halfplane point: spacing at 2048 nodes is ~0.015
    HALF_TRUNCATION = 10.0
    EPSILONS = (0.1, 0.05, 0.025, 0.0125)
    SWEEP = 30  # deltas x targets per sweep

    def prepare(self):
        rng = self.rng
        n = self.BATCH
        self.kx2 = 0.8 * math.sqrt(rng.uniform()) * _circle(rng.uniform(0, 2 * math.pi))
        angles = rng.uniform(0, 2 * math.pi, n)
        self.kt2 = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        self.kx3 = 0.8 * _sphere_point(rng)
        g = rng.normal(size=(n, 3))
        self.kt3 = g / np.linalg.norm(g, axis=1)[:, None]
        self.khx2 = np.array([rng.normal(), rng.uniform(0.1, 2.0)])
        self.kht2 = np.stack([rng.normal(scale=3.0, size=n), np.zeros(n)], axis=1)
        self.khx3 = np.array([rng.normal(), rng.normal(), rng.uniform(0.1, 2.0)])
        self.kht3 = np.concatenate([rng.normal(scale=3.0, size=(n, 2)), np.zeros((n, 1))], axis=1)
        self.kernel_exact = [
            (1 - self.kx2 @ self.kx2) / (2 * math.pi * np.sum((self.kt2 - self.kx2) ** 2, axis=1)),
            (1 - self.kx3 @ self.kx3) / (4 * math.pi * np.sum((self.kt3 - self.kx3) ** 2, axis=1) ** 1.5),
            self.khx2[1] / (math.pi * np.sum((self.kht2 - self.khx2) ** 2, axis=1)),
            self.khx3[2] / (2 * math.pi * np.sum((self.kht3 - self.khx3) ** 2, axis=1) ** 1.5),
        ]

        self.ex2 = 0.85 * math.sqrt(rng.uniform()) * _circle(rng.uniform(0, 2 * math.pi))
        self.ex3 = 0.8 * rng.uniform() ** (1 / 3) * _sphere_point(rng)
        u = rng.uniform(-1.0, 1.0)
        h, T = self.HALF_HEIGHT, self.HALF_TRUNCATION
        self.hx = np.array([u, h])
        # Truncated Poisson integrals on [-T, T]: of f = 1 (via the library's
        # closed-form tail, exact in d = 2) and of f(t) = t (antiderivative below).
        anti = lambda t: (h * 0.5 * math.log((t - u) ** 2 + h * h) + u * math.atan((t - u) / h)) / math.pi
        self.hx_coord_exact = anti(T) - anti(-T)

        self.gap_bases = {
            "disc": _circle(rng.uniform(0, 2 * math.pi)),
            "ellipse": _ellipse_point(rng.uniform(0, 2 * math.pi)),
            "ball3": _sphere_point(rng),
        }
        eb = self.gap_bases["ellipse"]
        # rho = x^2/4 + y^2 - 1 is quadratic, so rho_eps(s) = -s_d + (eps/2) s^T M s
        # exactly, with M = Q Hess Q^T / |grad rho|; the sup over |s| <= 1 is the
        # top eigenvalue 2/|grad rho| (b = 1), i.e. gap = eps / |grad rho(base)|.
        self.ellipse_gap_slope = 1.0 / math.hypot(eb[0] / 2.0, 2.0 * eb[1])

        k = self.SWEEP
        self.sweep_deltas = list(np.geomspace(0.2, 2e-3, k))
        u0 = rng.normal()
        b0 = rng.normal(size=2)
        self.sweeps = {
            "disc": (_circle(rng.uniform(0, 2 * math.pi)),
                     [_circle(a) for a in rng.uniform(0, 2 * math.pi, k)]),
            "ball3": (_sphere_point(rng), [_sphere_point(rng) for _ in range(k)]),
            "halfplane": (np.array([u0, 0.0]),
                          [np.array([u0 + rng.normal(), 0.0]) for _ in range(k)]),
            "halfspace3": (np.array([b0[0], b0[1], 0.0]),
                           [np.array([*(b0 + rng.normal(size=2)), 0.0]) for _ in range(k)]),
        }
        self.deriv_base = np.array([rng.uniform(-1.0, 1.0), 0.0])
        self.deriv_h = rng.uniform(0.1, 0.5)

    def ops(self):
        pk, d = self.pk, self.d
        one = lambda nodes: np.ones(np.atleast_2d(nodes).shape[0])
        coord = lambda k: (lambda nodes: np.atleast_2d(nodes)[:, k])

        def kernels():
            return [pk.poisson_ball(2, self.kx2, self.kt2), pk.poisson_ball(3, self.kx3, self.kt3),
                    pk.poisson_halfspace(2, self.khx2, self.kht2),
                    pk.poisson_halfspace(3, self.khx3, self.kht3)]

        def check_kernels(values):
            for got, want in zip(values, self.kernel_exact):
                err = float(np.max(np.abs(got - want) / want))
                expect(err <= 1e-12, f"kernel batch relative error {err:.2e}")

        def extend_balls():
            res = self.EXTEND_RES
            return [pk.harmonic_extend(d["disc"], coord(0), self.ex2, res),
                    pk.kernel_normalization(d["disc"], self.ex2, res),
                    pk.harmonic_extend(d["ball3"], coord(2), self.ex3, 64),
                    pk.kernel_normalization(d["ball3"], self.ex3, 64)]

        def check_extend_balls(v):
            want = [self.ex2[0], 1.0, self.ex3[2], 1.0]
            err = max(abs(g - w) for g, w in zip(v, want))
            expect(err <= 1e-8, f"harmonic reproduction error {err:.2e}")

        def extend_half():
            return pk.harmonic_extend(d["halfplane"], coord(0), self.hx, self.EXTEND_RES,
                                      truncation=self.HALF_TRUNCATION)

        def normalize_half():
            return pk.kernel_normalization(d["halfplane"], self.hx, self.EXTEND_RES,
                                           truncation=self.HALF_TRUNCATION)

        def check_norm_half(v):
            want = 1.0 - pk.halfspace_truncation_tail(2, self.hx, self.HALF_TRUNCATION)
            expect(abs(v - want) <= 1e-7, f"halfplane normalization {v!r} vs {want!r}")

        def gaps():
            out = {}
            for name, base in self.gap_bases.items():
                dom = d[name]
                out[name] = [pk.linearization_gap(pk.transfer_defining_function(
                    pk.boundary_frame(dom, base, eps), dom), 1.0) for eps in self.EPSILONS]
            return out

        def check_gaps(out):
            for name, values in out.items():
                for eps, gap in zip(self.EPSILONS, values):
                    if name == "ellipse":
                        want, tol = eps * self.ellipse_gap_slope, 1e-4 * eps
                    else:
                        want, tol = eps / 2.0, eps * eps
                    expect(abs(gap - want) <= tol, f"{name} gap {gap:.6g} vs {want:.6g} at eps {eps}")
                ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
                expect(all(0.45 <= r <= 0.55 for r in ratios), f"{name} halving ratios {ratios}")

        def sweeps():
            return {name: pk.normal_sweep(d[name], pk.model_kernel(d[name]), base,
                                          self.sweep_deltas, targets)
                    for name, (base, targets) in self.sweeps.items()}

        def check_sweeps(reports):
            laws = {"disc": lambda x: (1 + np.linalg.norm(x)) / (2 * math.pi),
                    "ball3": lambda x: (1 + np.linalg.norm(x)) / (4 * math.pi),
                    "halfplane": lambda x: 1 / math.pi,
                    "halfspace3": lambda x: 1 / (2 * math.pi)}  # Gamma(d/2) / pi^(d/2)
            for name, report in reports.items():
                expect(len(report.records) == self.SWEEP ** 2, f"{name}: {len(report.records)} records")
                err = max(abs(r.ratio - laws[name](np.array(r.x))) for r in report.records)
                expect(err <= 1e-10, f"{name} ratio law error {err:.2e}")

        def derivative():
            h = self.deriv_h
            return pk.derivative_report(d["halfplane"], pk.model_kernel(d["halfplane"]),
                                        self.deriv_base, h, [0.0, 0.5 * h, h, 2 * h, 5 * h, 10 * h])

        def check_derivative(report):
            check_halfplane_derivative(report.to_json_summary())

        return [
            Op("kernel_batches", kernels, check_kernels),
            Op("extend_ball_and_disc", extend_balls, check_extend_balls),
            Op("extend_halfplane", extend_half,
               lambda v: expect(abs(v - self.hx_coord_exact) <= 1e-7,
                                f"halfplane extension {v!r} vs {self.hx_coord_exact!r}")),
            Op("normalize_halfplane", normalize_half, check_norm_half),
            Op("linearization_gaps", gaps, check_gaps),
            Op("model_sweeps", sweeps, check_sweeps),
            Op("derivative_report", derivative, check_derivative),
        ]


def check_halfplane_derivative(summary: dict):
    """Exact halfplane laws at probe height h (records: offset-major, tangential then normal)."""
    rec = summary["records"]
    expect(summary["normal_ratio_unbounded"] is True, "normal ratio not flagged unbounded")
    expect(len(rec) == 12, f"{len(rec)} derivative records")
    checks = [(rec[0], 0.0), (rec[1], 1 / math.pi), (rec[4], math.sqrt(2) / math.pi)]
    for r, want in checks:
        expect(abs(r["ratio"] - want) <= 1e-5,
               f"{r['direction_label']} derivative ratio {r['ratio']!r} vs {want!r}")


class Cli(Workload):
    """Fresh-process invocations of all six subcommands on the README's domain specs."""

    def prepare(self):
        pk, rng, ctx = self.pk, self.rng, self.ctx
        for name, text in CLI_SPEC_FILES.items():
            with open(os.path.join(ctx.workdir, name), "w") as handle:
                handle.write(text + "\n")
        disc = pk.Ball(2)
        p = lambda v: ",".join(repr(float(c)) for c in v)

        self.kx = 0.8 * math.sqrt(rng.uniform()) * _circle(rng.uniform(0, 2 * math.pi))
        self.kt = _circle(rng.uniform(0, 2 * math.pi))
        self.ex = 0.85 * math.sqrt(rng.uniform()) * _circle(rng.uniform(0, 2 * math.pi))
        self.sbase = _circle(rng.uniform(0, 2 * math.pi))
        self.wx = 0.5 * _circle(rng.uniform(0, 2 * math.pi))
        w_angle = rng.uniform(0, 2 * math.pi)
        self.wcenter = _circle(w_angle)
        self.wseed = self.wos_seed()
        self.rbase = _circle(rng.uniform(0, 2 * math.pi))
        self.rtargets = [_circle(a) for a in rng.uniform(0, 2 * math.pi, 3)]
        self.qbase = _circle(rng.uniform(0, 2 * math.pi))
        self.qtargets = [self.qbase] + [_circle(a) for a in rng.uniform(0, 2 * math.pi, 2)]
        self.qseed = self.wos_seed()
        self.dbase = np.array([rng.uniform(-1.0, 1.0), 0.0])
        self.dh = rng.uniform(0.1, 0.5)
        h = self.dh

        self.argv = {
            "kernel": ["kernel", "--domain", "disc.json", f"--x={p(self.kx)}", f"--t={p(self.kt)}"],
            "extend": ["extend", "--domain", "disc.json", f"--x={p(self.ex)}", "--data", "coord:0",
                       "--resolution", "1024"],
            "scale": ["scale", "--domain", "disc.json", f"--base={p(self.sbase)}",
                      "--deltas", "0.1,0.05,0.025"],
            "wos": ["wos", "--domain", "disc.json", f"--x={p(self.wx)}",
                    f"--cap-center={p(self.wcenter)}",
                    "--cap-radius", "0.4", "--walkers", str(WALKERS), "--seed", str(self.wseed),
                    "--stop-tol", repr(STOP)],
            "ratio_model": ["ratio", "--domain", "disc.json", f"--base={p(self.rbase)}",
                            "--deltas", "0.2,0.1,0.05,0.025",
                            "--targets=" + ";".join(p(t) for t in self.rtargets),
                            "--out", "sweep.csv", "--summary-out", "sweep.json"],
            "ratio_wos": ["ratio", "--domain", "disc.json", f"--base={p(self.qbase)}",
                          "--deltas", "0.2,0.1", "--targets=" + ";".join(p(t) for t in self.qtargets),
                          "--kernel", "wos", "--walkers", "20000", "--seed", str(self.qseed),
                          "--cap-radius", "0.05", "--stop-tol", repr(STOP)],
            "derivative": ["derivative", "--domain", "halfplane.json", f"--base={p(self.dbase)}",
                           "--probe-height", repr(h),
                           "--offsets=" + p([0.0, 0.5 * h, h, 2 * h, 5 * h, 10 * h])],
        }

        # The in-process library calls the CLI's randomized reports must equal.
        cfg = pk.WosConfig(walkers=WALKERS, seed=self.wseed, stop_tolerance=STOP)
        self.wos_cap = pk.estimate_cap_measure(disc, self.wx, self.wcenter, 0.4, cfg)
        self.wos_density = pk.estimate_kernel_density(disc, self.wx, self.wcenter, 0.4, cfg)
        self.wos_exact = _disc_cap_measure(self.wx, w_angle, 0.4)
        qcfg = pk.WosConfig(walkers=20_000, seed=self.qseed, stop_tolerance=STOP)
        self.ratio_wos_csv = pk.normal_sweep(
            disc, pk.WosKernel(disc, qcfg, 0.05), self.qbase, [0.2, 0.1], self.qtargets
        ).to_csv_text()

    def ops(self):
        def report(out):
            code, stdout, stderr = out
            expect(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
            return json.loads(stdout)["result"]

        def csv_rows(text):
            body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            return [dict(zip(body[0].split(","), ln.split(","))) for ln in body[1:]]

        def check_kernel(out):
            got = report(out)["value"]
            x, t = self.kx, self.kt
            want = (1 - x @ x) / (2 * math.pi * np.sum((x - t) ** 2))
            expect(abs(got - want) <= 1e-12 * want, f"kernel {got!r} vs {want!r}")

        def check_extend(out):
            r = report(out)
            expect(abs(r["value"] - self.ex[0]) <= 1e-8, f"extension {r['value']!r} vs {self.ex[0]!r}")
            expect(abs(r["normalization"] - 1.0) <= 1e-8, f"normalization {r['normalization']!r}")

        def check_scale(out):
            r = report(out)
            for g in r["gaps"]:
                expect(abs(g["gap"] - g["epsilon"] / 2) <= 1e-3, f"gap {g}")
            expect(all(0.45 <= q["gap_ratio"] <= 0.55 for q in r["halving_ratios"]), "halving ratios")

        def check_wos(out):
            r = report(out)
            for rec, est in ((r["cap_measure"], self.wos_cap), (r["density"], self.wos_density)):
                expect(rec["estimate"] == est.estimate and rec["std_error"] == est.std_error,
                       f"CLI wos {rec} differs from the library call {est}")
            _check_cap(self.wos_cap, self.wos_exact)

        def check_ratio_model(out):
            code, _, stderr = out
            expect(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
            with open(os.path.join(self.ctx.workdir, "sweep.csv")) as handle:
                rows = csv_rows(handle.read())
            with open(os.path.join(self.ctx.workdir, "sweep.json")) as handle:
                summary = json.load(handle)["result"]
            expect(len(rows) == 12, f"{len(rows)} CSV rows")
            ratios = [float(row["ratio"]) for row in rows]
            for row, ratio in zip(rows, ratios):
                want = (2.0 - float(row["delta"])) / (2 * math.pi)  # (1 + |x|) / 2pi, |x| = 1 - delta
                expect(abs(ratio - want) <= 1e-10, f"ratio {ratio!r} vs {want!r}")
            expect(summary["c1_hat"] == min(ratios) and summary["c2_hat"] == max(ratios), "summary band")

        def check_ratio_wos(out):
            code, stdout, stderr = out
            expect(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
            body = "".join(ln + "\n" for ln in stdout.splitlines() if not ln.startswith("#"))
            expect(body == self.ratio_wos_csv, "CLI wos ratio CSV differs from the library sweep")

        def check_derivative(out):
            check_halfplane_derivative(report(out))

        checks = {"kernel": check_kernel, "extend": check_extend, "scale": check_scale,
                  "wos": check_wos, "ratio_model": check_ratio_model,
                  "ratio_wos": check_ratio_wos, "derivative": check_derivative}
        return [Op(key, lambda key=key: self.ctx.invoke_cli(self.argv[key]), check)
                for key, check in checks.items()]


WORKLOADS = {
    "wos": Wos,
    "closed_form": ClosedForm,
    "cli": Cli,
}
