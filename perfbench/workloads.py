"""The benchmark's workloads and the checks on every operation they run.

Each workload is a closed loop with a single client: one operation starts
when the previous one has finished.  ``run_pass`` runs one pass, adds every
operation to a ``Tally`` and returns a digest of the pass's outputs, so that
two passes over the same inputs can be compared byte for byte.

All calls go through module attributes (``bianchi.classify_l2``, not a name
bound here), so the tracer in ``spans.py`` sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hkforms import bianchi, cli, gibbons_hawking, nahm, quotient
from hkforms.exterior import forms, operators, quaternionic

NO_NAHM_SUITES = ("algebra", "taubnut", "bianchi", "quotient")

# Taub-NUT masses on a 1/8 grid over [0.25, 3]; classify_l2 raises
# ArithmeticError at three of them (the quadrature route's truncation
# increments sit at its rel=1e-7 noise floor).
TN_GRID = tuple(0.25 + 0.125 * j for j in range(23))
TN_RAISES = (1.125, 1.375, 1.5)
EH_GRID = tuple(0.2 * j for j in range(1, 21))
QUOTIENT_SHIFTS = {"taubnut_R": (-0.5, 0.5), "calabi_circle": (0.25, 1.0)}
NAHM_NODES = (501, 2001)
NAHM_ETA = 1j * np.array([[0.1, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]])
NAHM_GAUGE_NODES = 2001

FD_BOUND = 1e-5        # quotient residual contract, as in the quotient suite
DDTHETA_BOUND = 1e-6   # as in the taubnut suite
NAHM_BOUND = 1e-4      # contraction identity, as in the nahm suite
NAHM_RES_BOUND = 1e-8  # one-pole residual and its gauge invariance, as in the nahm suite
FORMS_BOUND = 1e-12


@dataclass
class Tally:
    """Operations attempted, failed (raised or wrong), and wrong outputs."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def ok(self, n: int = 1):
        self.attempted += n

    def raised(self, what: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self._note(f"{what}: raised {type(exc).__name__}: {exc}")

    def bad(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.wrong += 1
        self._note(f"{what}: failed its check")

    def _note(self, text: str):
        if text not in self.notes:
            self.notes.append(text)


# ---------------------------------------------------------------------------
# suite workloads: cli.main as users run it
# ---------------------------------------------------------------------------

class SuiteWorkload:
    """``hkforms --suite S --seed N --out DIR --format csv`` for each suite S.

    An operation is one check record of report.json.  A call that raises, or
    exits non-zero without a failed record to show for it, is one failed
    operation.  A failed record is a wrong output.
    """

    def __init__(self, suites, seed: int, scratch: Path, extra_argv=()):
        self.suites = tuple(suites)
        self.seed = seed
        self.scratch = scratch
        self.extra_argv = tuple(extra_argv)
        self.digests: dict[str, str] = {}

    def run_pass(self, tally: Tally, tracer=None) -> str:
        parts = []
        for op, suite in enumerate(self.suites):
            if tracer is not None:
                tracer.op = op
            parts.append(f"{suite}:{self._run_cli(suite, tally)}")
        return ";".join(parts)

    def _run_cli(self, suite: str, tally: Tally) -> str:
        out = self.scratch / suite
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--suite", suite, "--seed", str(self.seed), "--out", str(out),
                "--format", "csv", *self.extra_argv]
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                status = cli.main(argv)
        except Exception as exc:  # one failing suite must not stop the benchmark
            tally.raised(f"--suite {suite}", exc)
            return f"raised {type(exc).__name__}"
        report_path = out / "report.json"
        if not report_path.is_file():
            tally.raised(f"--suite {suite}", RuntimeError(f"exit status {status}, no report"))
            return f"exit {status}"
        data = report_path.read_bytes()
        records = json.loads(data)["records"]
        n_bad = sum(1 for r in records if not r["passed"])
        tally.ok(len(records) - n_bad)
        for r in records:
            if not r["passed"]:
                tally.bad(f"--suite {suite} {r['check']}")
        if status != 0 and n_bad == 0:
            tally.raised(f"--suite {suite}", RuntimeError(f"exit status {status}"))
        digest = hashlib.sha256(data).hexdigest()
        self.digests[suite] = digest
        return digest


# ---------------------------------------------------------------------------
# verify-sweep: seeded inputs the suites never use
# ---------------------------------------------------------------------------

def _sparse_form(rng, dim: int, degree: int, nnz: int = 3) -> dict:
    basis = forms.basis_indices(dim, degree)
    picks = rng.choice(len(basis), size=min(nnz, len(basis)), replace=False)
    return {basis[int(i)]: complex(rng.standard_normal(), rng.standard_normal())
            for i in sorted(picks)}


def build_sweep(seed: int) -> list[tuple[str, dict]]:
    """Sweep items as (family, parameters); the counts do not depend on the seed."""
    rng = np.random.default_rng(seed)
    items: list[tuple[str, dict]] = []

    for model, (lo, hi) in QUOTIENT_SHIFTS.items():
        for _ in range(3):
            point = dict(model=model, shift=float(rng.uniform(lo, hi)),
                         u=tuple(float(x) for x in rng.uniform(-1.0, 1.0, 4)))
            for axis in (1, 2, 3):
                items.append(("quotient.closedness", dict(point, axis=axis)))
            items.append(("quotient.omegas", point))
            items.append(("quotient.beta", point))

    items.append(("bianchi.eguchi-hanson", dict(a=float(rng.choice(EH_GRID)))))
    # Two masses classify_l2 settles and one where it raises, so every pass
    # carries the known defect once and its time does not hang on the draw.
    settles = [m for m in TN_GRID if m not in TN_RAISES]
    for m in rng.choice(settles, size=2, replace=False):
        items.append(("bianchi.taubnut", dict(m=float(m))))
    items.append(("bianchi.taubnut", dict(m=float(rng.choice(TN_RAISES)))))
    lo = math.pi + float(rng.uniform(0.6, 1.4))
    items.append(("bianchi.two-monopole",
                  dict(band=(lo, lo + float(rng.uniform(0.6, 1.8))),
                       blend=str(rng.choice(["c2", "c3"])))))

    for _ in range(40):
        x = rng.standard_normal(3) * 3.0
        while np.linalg.norm(x) <= 1e-2:
            x = rng.standard_normal(3) * 3.0
        items.append(("gibbons_hawking.ddtheta",
                      dict(m=float(rng.uniform(0.5, 2.0)), x=tuple(map(float, x)),
                           tau=float(rng.random()))))
    # Radii stay in [12, 100): below about 10 m the cross term need not decay
    # yet, and above 100 the volume quadrature's absolute tolerance falls under
    # the integrand's roundoff, so its cost swings from 5 to millions of
    # evaluations on the last bits of r (the taubnut suite's r = 1e4 shows that).
    for _ in range(4):
        r1 = float(rng.uniform(12.0, 25.0))
        r2 = r1 * 10.0 ** rng.uniform(0.25, 0.3)
        r3 = r2 * 10.0 ** rng.uniform(0.25, 0.3)
        items.append(("gibbons_hawking.cutoff-decay",
                      dict(m=float(rng.uniform(0.5, 2.0)), radii=(r1, r2, r3),
                           seed=int(rng.integers(2 ** 31)))))

    for nodes in NAHM_NODES:
        items.append(("nahm.contraction",
                      dict(nodes=nodes, eps=float(10.0 ** rng.uniform(math.log10(5e-3), -1.3)),
                           scalars=tuple(float(x) for x in rng.uniform(-1.0, 1.0, 3)),
                           seed=int(rng.integers(2 ** 31)))))

    # The one-pole residual stays under 1e-8 on 2,001 nodes for eps >= 0.1
    # (4e-10 at eps = 0.1); a bump gauge path along a random anti-hermitian
    # direction must leave it unchanged.
    for _ in range(2):
        d = float(rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        items.append(("nahm.gauge-invariance",
                      dict(nodes=NAHM_GAUGE_NODES, eps=float(rng.uniform(0.1, 0.3)),
                           xi=((d, z), (z.conjugate(), -d)))))

    for dim in (4, 8):
        for _ in range(5):
            p = int(rng.integers(1, dim))
            q = int(rng.integers(1, dim - p + 1))
            items.append(("exterior.graded-commutativity",
                          dict(dim=dim, a=_sparse_form(rng, dim, p), b=_sparse_form(rng, dim, q))))
        for _ in range(5):
            p = int(rng.integers(0, dim + 1))
            items.append(("exterior.star-star", dict(dim=dim, a=_sparse_form(rng, dim, p))))
        for _ in range(5):
            p = int(rng.integers(0, dim - 1))
            items.append(("exterior.adjointness",
                          dict(dim=dim, axis=int(rng.integers(1, 4)),
                               a=_sparse_form(rng, dim, p), b=_sparse_form(rng, dim, p + 2))))
    return items


def _chart(model, shift):
    return quotient.QuotientChart(quotient.GroupActionSpec(model, level_shift=shift))


def _quotient_closedness(model, shift, u, axis):
    value = _chart(model, shift).closedness_residual(axis, np.array(u))
    return value <= FD_BOUND, value


def _quotient_omegas(model, shift, u):
    value = max(_chart(model, shift).omegas_relation_residuals(np.array(u)).values())
    return value <= FD_BOUND, value


def _quotient_beta(model, shift, u):
    value = _chart(model, shift).beta_exactness_residual(np.array(u))
    return value <= FD_BOUND, value


def _verdicts(profile):
    v = bianchi.classify_l2(profile)
    return v, tuple((a, v[a].verdict, tuple(sorted(v[a].fitted_exponents.values())))
                    for a in (1, 2, 3))


def _eguchi_hanson(a):
    v, value = _verdicts(bianchi.eguchi_hanson_profile(a))
    return v[3].integrable and not v[1].integrable and not v[2].integrable, value


def _taubnut(m):
    v, value = _verdicts(bianchi.biaxial_taubnut_profile(m))
    ok = (v[3].integrable and v[3].extra_circle_invariant
          and not v[1].extra_circle_invariant
          and not v[1].integrable and not v[2].integrable)
    return ok, value


def _two_monopole(band, blend):
    v, value = _verdicts(bianchi.atiyah_hitchin_model_profile(band=band, blend=blend))
    ok = (v[1].integrable and not v[2].integrable and not v[3].integrable
          and v[2].divergent_endpoints == (math.pi,)
          and v[3].divergent_endpoints == (math.pi,))
    return ok, value


def _ddtheta(m, x, tau):
    point = gibbons_hawking.GHPoint(np.array(x), tau)
    value = gibbons_hawking.ddtheta_residual(point, gibbons_hawking.GHData(m=m))
    return value <= DDTHETA_BOUND, value


def _cutoff_decay(m, radii, seed):
    data = gibbons_hawking.GHData(m=m)
    cross = [gibbons_hawking.cutoff_cross_term(data, r, seed=seed) for r in radii]
    worst = max(b / a for a, b in zip(cross, cross[1:]))
    return worst < 1.0, worst


def _nahm_contraction(nodes, eps, scalars, seed):
    state = nahm.one_pole_state(eps, 1.0, nodes)
    tangent = nahm.ivp_tangent(state, np.array(scalars), seed=seed)
    rep = nahm.contraction_identity(state, tangent, *nahm.bumped_psi(state, NAHM_ETA))
    return rep.rel_err <= NAHM_BOUND, rep.rel_err


def _nahm_gauge_invariance(nodes, eps, xi):
    state = nahm.one_pole_state(eps, 1.0, nodes)
    residual = nahm.nahm_residual(state)
    g, g_prime = nahm.bump_gauge_path(state, 1j * np.array(xi))
    moved = abs(nahm.nahm_residual(nahm.gauge_transform(state, g, g_prime)) - residual)
    value = max(residual, moved)
    return value <= NAHM_RES_BOUND, value


def _graded_commutativity(dim, a, b):
    fa, fb = forms.FormVector(dim, a), forms.FormVector(dim, b)
    sign = (-1) ** (fa.degree() * fb.degree())
    value = (forms.wedge(fa, fb) - forms.wedge(fb, fa) * sign).norm()
    return value <= FORMS_BOUND, value


def _star_star(dim, a):
    fa = forms.FormVector(dim, a)
    p = fa.degree()
    value = (forms.hodge_star(forms.hodge_star(fa)) - fa * (-1) ** (p * (dim - p))).norm()
    return value <= FORMS_BOUND, value


def _adjointness(dim, axis, a, b):
    alg = operators.LefschetzAlgebra(quaternionic.QuaternionicStructure(dim))
    fa, fb = forms.FormVector(dim, a), forms.FormVector(dim, b)
    value = abs(forms.inner(alg.lefschetz(axis, fa), fb)
                - forms.inner(fa, alg.lefschetz_adjoint(axis, fb)))
    return value <= FORMS_BOUND, value


ITEM_CHECKS = {
    "quotient.closedness": _quotient_closedness,
    "quotient.omegas": _quotient_omegas,
    "quotient.beta": _quotient_beta,
    "bianchi.eguchi-hanson": _eguchi_hanson,
    "bianchi.taubnut": _taubnut,
    "bianchi.two-monopole": _two_monopole,
    "gibbons_hawking.ddtheta": _ddtheta,
    "gibbons_hawking.cutoff-decay": _cutoff_decay,
    "nahm.contraction": _nahm_contraction,
    "nahm.gauge-invariance": _nahm_gauge_invariance,
    "exterior.graded-commutativity": _graded_commutativity,
    "exterior.star-star": _star_star,
    "exterior.adjointness": _adjointness,
}


def _label(family: str, params: dict) -> str:
    shown = {k: v for k, v in params.items() if k not in ("a", "b", "xi")}
    return f"{family} {shown}"


class SweepWorkload:
    """Every pass runs the same seeded items; an operation is one item."""

    def __init__(self, seed: int):
        self.items = build_sweep(seed)

    def run_pass(self, tally: Tally, tracer=None) -> str:
        h = hashlib.sha256()
        for op, (family, params) in enumerate(self.items):
            if tracer is not None:
                tracer.op = op
            try:
                ok, value = ITEM_CHECKS[family](**params)
            except Exception as exc:  # a raising item is a failed operation, not a stop
                tally.raised(_label(family, params), exc)
                h.update(f"{op} raised {type(exc).__name__}\n".encode())
                continue
            if ok:
                tally.ok()
            else:
                tally.bad(_label(family, params))
            h.update(f"{op} {ok} {value!r}\n".encode())
        return h.hexdigest()


WORKLOADS = ("suite-all", "suites-no-nahm", "verify-sweep")


def make(name: str, seed: int, scratch: Path):
    """The workload of that name, with its inputs made from `seed`."""
    if name == "suite-all":
        return SuiteWorkload(("all",), seed, scratch)
    if name == "suites-no-nahm":
        return SuiteWorkload(NO_NAHM_SUITES, seed, scratch)
    if name == "verify-sweep":
        return SweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
