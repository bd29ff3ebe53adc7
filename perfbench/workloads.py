"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is one fixed batch ("round") of operations.  The runner
repeats whole rounds, times each operation, and calls its check outside
the timed region.  Operations call spinaxes through module attributes
(``sa.extract_mar``) so that a traced run sees them through its wrappers.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import sph_harm_y

import oracle as ref
import spinaxes as sa
from oracle import require

# Inputs of the fault-A panel come from this fixed seed, never from --seed,
# so the panel, and the operations of it that fail, are the same in every run.
PANEL_SEED = 1706
TOL = 1e-9  # relative agreement demanded of tensors and matrices
# Axes are promised only as far as the program pairs roots: within 1e-6.
AXIS_TOL = 1e-6
# rotate_t against rho_to_t(U rho U^dag): the program's Wigner d sums terms
# that cancel, and at rank 40 near beta = pi/2 its entries are off by 7e-6.
ROTATE_TOL = 1e-5


@dataclass
class Op:
    label: str  # "N=<2j> <kind of input> ...": groups the round, names failures
    size: str | None  # "small" or "large": the median the op's time enters
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    warm: list  # one untimed pass over these fills every cache of the round's spins


def interleaved(ops) -> list:
    """Spread the operations of each spin evenly over the round.

    The machine's speed drifts over seconds; spread out, the samples of each
    size class see the same mix of fast and slow stretches in every run.
    """
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.label.split()[0], []).append(op)
    keyed = [((i + 0.5) / len(g), n, op) for n, g in enumerate(groups.values()) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def _warm_pass(ops) -> list:
    """The first operation of each kind of input at each spin."""
    seen, warm = set(), []
    for op in ops:
        key = " ".join(op.label.split()[:2])
        if key not in seen:
            seen.add(key)
            warm.append(op)
    return warm


def close(a, b, what: str, tol: float = TOL) -> None:
    a, b = np.asarray(a), np.asarray(b)
    err = float(np.abs(a - b).max())
    require(err <= tol * max(1.0, float(np.abs(b).max())), f"{what} off by {err:.3g}")


def _blocks(t) -> list:
    return [t.rank(k) for k in range(t.max_rank + 1)]


def _ranks(m) -> list:
    """(k, radius or None, sign, axes) of every rank of a MarDecomposition."""
    return [
        (e.rank, e.radius if e.resolved else None, e.sign, [(a.theta, a.phi) for a in e.axes]) for e in m.ranks
    ]


# ---------------------------------------------------------------- inputs


def random_terms(rng, count: int) -> list:
    """Weights and directions of an ensemble, uniform on the simplex and the sphere."""
    w = rng.dirichlet(np.ones(count))
    theta = np.arccos(rng.uniform(-1.0, 1.0, count))
    phi = rng.uniform(0.0, 2 * math.pi, count)
    return [(float(a), float(b), float(c)) for a, b, c in zip(w, theta, phi)]


def make_ensemble(n: int, terms) -> sa.SeparableEnsemble:
    return sa.SeparableEnsemble(n, tuple((w, sa.BlochVector(theta, phi)) for w, theta, phi in terms))


def random_state(rng, dj: int) -> np.ndarray:
    """A full-rank mixed state A A^dag / Tr, A complex Gaussian."""
    d = dj + 1
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _grid(band: int):
    """Gauss-Legendre in cos(theta) times uniform phi: exact through degree ``band``."""
    x, w = np.polynomial.legendre.leggauss(band + 2)
    n_phi = 2 * band + 3
    theta, phi = np.meshgrid(np.arccos(x), np.arange(n_phi) * (2 * math.pi / n_phi), indexing="ij")
    return theta, phi, w[:, None] * (2 * math.pi / n_phi)


def project(values_fn, l_max: int) -> list:
    """a^l_m = integral f Y^l_m dOmega, exact for f of degree <= l_max on this grid,
    normalised to integral f = 1 and made to satisfy the reality condition exactly."""
    theta, phi, weights = _grid(2 * l_max)
    f = values_fn(theta, phi) * weights
    blocks = []
    for l in range(l_max + 1):
        half = np.array([np.sum(f * sph_harm_y(l, m, theta, phi)) for m in range(l + 1)])
        sign = (-1.0) ** np.arange(l, 0, -1)
        blocks.append(np.concatenate([sign * half[:0:-1].conj(), half]))
    blocks[0] = blocks[0].real.astype(complex)
    norm = math.sqrt(4 * math.pi) * blocks[0][0].real
    return [b / norm for b in blocks]


def positive_expansion(rng, l_max: int) -> list:
    """Blocks of lambda = g1^2 + g2^2 + 1/10, g1 and g2 random real functions of
    degree l_max / 2 (one square alone would be axially symmetric at l_max = 2)."""
    half = l_max // 2
    pairs = [(l, m) for l in range(half + 1) for m in range(l + 1)]
    coeffs = [{lm: rng.normal() + 1j * rng.normal() * (lm[1] != 0) for lm in pairs} for _ in range(2)]

    def g(c, theta, phi):
        return sum((1 + (m != 0)) * (z * sph_harm_y(l, m, theta, phi)).real for (l, m), z in c.items())

    return project(lambda th, ph: g(coeffs[0], th, ph) ** 2 + g(coeffs[1], th, ph) ** 2 + 0.1, l_max)


def ylm_squared_blocks(l: int, m: int) -> list:
    return project(lambda th, ph: np.abs(sph_harm_y(l, m, th, ph)) ** 2, 2 * l)


def expansion(blocks) -> sa.SphericalExpansion:
    return sa.SphericalExpansion(len(blocks) - 1, tuple(blocks))


# ---------------------------------------------------------------- mar_separable


def _mar_check(t_ref, expect_collinear, along=None):
    def check(out):
        t, m, collinear = out
        close(np.concatenate(_blocks(t)), np.concatenate(t_ref), "t^k_q")
        vectors = ref.check_decomposition(t_ref, _ranks(m), AXIS_TOL)
        if along is not None:
            require(ref.all_along(vectors, along, AXIS_TOL), "an axis leaves the expected line")
        require(collinear == expect_collinear, f"collinearity_check gave {collinear}")

    return check


def ensemble_op(n: int, terms, size, tag: str = "") -> Op:
    ens = make_ensemble(n, terms)
    along = ref.unit_vector(terms[0][1], terms[0][2]) if len(terms) == 1 else None

    def run():
        t = sa.rho_to_t(sa.ensemble_to_rho(ens))
        m = sa.extract_mar(t)
        return t, m, sa.collinearity_check(m)

    return Op(f"N={n} {tag}ensemble K={len(terms)}", size, run, _mar_check(ref.ensemble_tensor(n, terms), len(terms) == 1, along))


def continuum_op(dj: int, label: str, make_t, blocks, zonal: bool) -> Op:
    def run():
        t = make_t()
        m = sa.extract_mar(t)
        return t, m, sa.collinearity_check(m)

    along = np.array([0.0, 0.0, 1.0]) if zonal else None
    return Op(f"N={dj} {label}", None, run, _mar_check(ref.expansion_tensor(dj, blocks), zonal, along))


def mar_separable(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    # Seeded ensembles, only where no draw has been seen to hit fault A.  Their
    # times at N = 4 and 16 make small_op_ms and large_op_ms: within one size
    # they cost about the same, which the continuum and panel inputs do not.
    for n, ks in ((4, (1, 2, 3, 4, 8) * 2), (8, (4, 8)), (12, (8, 8)), (16, (8,) * 4)):
        for k in ks:
            ops.append(ensemble_op(n, random_terms(rng, k), {4: "small", 16: "large"}.get(n)))
    # Continuum states: random positive band-limited lambda, uniform, |Y^l_m|^2.
    uniform = [np.array([1 / math.sqrt(4 * math.pi)], dtype=complex)]
    for dj, band in ((4, 2), (8, 4), (12, 2), (12, 4)):
        blocks = positive_expansion(rng, band)
        make = functools.partial(sa.t_from_distribution, expansion(blocks), sa.HalfInt(dj))
        ops.append(continuum_op(dj, f"lambda L={band}", make, blocks, False))
    for dj in (4, 12):
        make = functools.partial(sa.t_from_distribution, expansion(uniform), sa.HalfInt(dj))
        ops.append(continuum_op(dj, "uniform", make, uniform, True))
    for dj in (4, 8, 12):
        l = int(rng.integers(1, 4))
        m = int(rng.integers(-l, l + 1))
        make = functools.partial(sa.ylm_squared_t, l, m, sa.HalfInt(dj))
        ops.append(continuum_op(dj, f"|Y^{l}_{m}|^2", make, ylm_squared_blocks(l, m), True))
    # Fault-A panel: fixed ensembles with K <= 3, where some draws hit fault A,
    # plus two single product states near the pole that fail every time.
    panel = np.random.default_rng(PANEL_SEED)
    for n in (6, 8, 12, 16):
        for k in (1, 1, 2, 2, 3, 3):
            ops.append(ensemble_op(n, random_terms(panel, k), None, "panel "))
    ops.append(ensemble_op(10, [(1.0, 0.1, 0.0)], None, "panel "))
    ops.append(ensemble_op(8, [(1.0, 0.05, 0.0)], None, "panel "))
    return Workload(interleaved(ops), _warm_pass(ops))


# ---------------------------------------------------------------- mar_generic


def generic_op(dj: int, rho: np.ndarray, size) -> Op:
    state = sa.SpinDensityMatrix(sa.HalfInt(dj), rho)
    t1 = ref.rank_one_tensor(dj, rho)

    def run():
        t = sa.rho_to_t(state)
        return t, sa.extract_mar(t)

    def check(out):
        t, m = out
        blocks = _blocks(t)
        close(blocks[1], t1, "t^1_q")
        ref.check_decomposition(blocks, _ranks(m), AXIS_TOL)

    return Op(f"N={dj} generic", size, run, check)


def mar_generic(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for dj, count in ((8, 16), (12, 4), (16, 2), (20, 2), (24, 5)):
        for _ in range(count):
            ops.append(generic_op(dj, random_state(rng, dj), {8: "small", 24: "large"}.get(dj)))
    return Workload(interleaved(ops), _warm_pass(ops))


# ---------------------------------------------------------------- conversions


def conversion_op(dj: int, rho: np.ndarray, angles, blocks, size) -> Op:
    j = sa.HalfInt(dj)
    state = sa.SpinDensityMatrix(j, rho)
    lam = expansion(blocks)
    u = ref.rotation(dj, *angles)
    rotated = sa.SpinDensityMatrix(j, u @ rho @ u.conj().T)
    t1 = ref.rank_one_tensor(dj, rho)
    t_lam = np.concatenate(ref.expansion_tensor(dj, blocks))

    def run():
        t = sa.rho_to_t(state)
        turned = sa.rotate_t(t, *angles)
        back = sa.t_to_rho(t)
        direct = sa.t_from_distribution(lam, j)
        via_state = sa.rho_to_t(sa.rho_from_distribution(lam, j))
        return t, turned, back, direct, via_state

    def check(out):
        t, turned, back, direct, via_state = out
        close(t.rank(1), t1, "t^1_q")
        close(back.matrix, rho, "t_to_rho(rho_to_t(rho))")
        close(np.concatenate(_blocks(turned)), np.concatenate(_blocks(sa.rho_to_t(rotated))), "rotate_t", ROTATE_TOL)
        close(np.concatenate(_blocks(direct)), t_lam, "t_from_distribution")
        close(np.concatenate(_blocks(via_state)), np.concatenate(_blocks(direct)), "the two P-function routes")

    return Op(f"N={dj} conversions", size, run, check)


def conversions(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for dj, count, band in ((4, 8, 2), (12, 4, 4), (24, 2, 4), (40, 2, 4)):
        for _ in range(count):
            angles = (rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            size = {4: "small", 40: "large"}.get(dj)
            ops.append(conversion_op(dj, random_state(rng, dj), angles, positive_expansion(rng, band), size))
    return Workload(interleaved(ops), _warm_pass(ops))


# ---------------------------------------------------------------- cli_cold


@dataclass
class CliResult:
    returncode: int
    stdout: Path
    stderr: Path
    spans: Path | None


class Cli:
    """Runs one `spinaxes` process at a time; traced runs go through cli_child.py."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.calls = 0

    def op(self, name: str, args: list, size: str, check: Callable[[dict], None]) -> Op:
        out = self.workdir / f"{name}.out.json"

        def run():
            self.calls += 1
            err = self.workdir / f"{name}.err"
            spans = self.workdir / f"{name}.{self.calls}.spans.json" if self.traced else None
            if spans is None:
                cmd = [sys.executable, "-m", "spinaxes.cli", *args]
            else:
                cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *args]
            with open(out, "w") as fo, open(err, "w") as fe:
                code = subprocess.run(cmd, stdout=fo, stderr=fe, timeout=120).returncode
            return CliResult(code, out, err, spans)

        def checked(result: CliResult):
            require(result.returncode == 0, f"exit code {result.returncode}: {result.stderr.read_text()[-300:]}")
            check(json.loads(result.stdout.read_text()))

        return Op(f"{name} cli", size, run, checked)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _tensor_blocks(doc: dict) -> list:
    blocks = [np.zeros(2 * k + 1, dtype=complex) for k in range(doc["j_doubled"] + 1)]
    for e in doc["entries"]:
        blocks[e["k"]][e["q"] + e["k"]] = complex(e["re"], e["im"])
    return blocks


def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


def _json_ranks(doc: dict) -> list:
    return [(r["rank"], r["radius"], r["sign"], [(a["theta"], a["phi"]) for a in r["axes"]]) for r in doc["ranks"]]


def cli_cold(seed: int, workdir: Path, traced: bool) -> Workload:
    rng = np.random.default_rng(seed)
    cli = Cli(workdir, traced)
    by_size = []
    for tag, n, k, band, size in (("small", 4, 3, 2, "small"), ("large", 20, 8, 4, "large")):
        terms = random_terms(rng, k)
        ens_file = _write(
            workdir / f"ens_{tag}.json",
            {"schema_version": 1, "n_qubits": n, "terms": [{"weight": w, "theta": a, "phi": b} for w, a, b in terms]},
        )
        rho = sa.ensemble_to_rho(make_ensemble(n, terms)).matrix
        state_file = _write(
            workdir / f"state_{tag}.json",
            {"schema_version": 1, "j_doubled": n, "matrix": [[[z.real, z.imag] for z in row] for row in rho]},
        )
        blocks = positive_expansion(rng, band)
        exp_file = _write(
            workdir / f"exp_{tag}.json",
            {
                "schema_version": 1,
                "l_max": band,
                "coeffs": [
                    {"l": l, "m": m - l, "re": z.real, "im": z.imag} for l, b in enumerate(blocks) for m, z in enumerate(b)
                ],
            },
        )
        t_ens = ref.ensemble_tensor(n, terms)
        t_lam = ref.expansion_tensor(n, blocks)

        def check_state(doc, terms=terms, n=n):
            ref.check_state_moments(n, _matrix(doc), terms, TOL)

        def check_tensor(doc, t_ens=t_ens):
            close(np.concatenate(_tensor_blocks(doc)), np.concatenate(t_ens), "rho2t t^k_q")

        def check_reload(doc, rho=rho):
            close(_matrix(doc), rho, "t2rho of the rho2t output")

        def check_mar(doc, t_ens=t_ens):
            ref.check_decomposition(t_ens, _json_ranks(doc), AXIS_TOL)
            require(doc["collinear"] is False, "collinear reported for a spread ensemble")

        def check_pfunc(doc, t_lam=t_lam):
            close(np.concatenate(_tensor_blocks(doc["tensor"])), np.concatenate(t_lam), "pfunc t^k_q")
            ref.check_decomposition(t_lam, _json_ranks(doc["mar"]), AXIS_TOL)
            require(doc["non_classical"] is False, "a positive lambda flagged non-classical")

        by_size.append(
            [
                cli.op(f"ensemble_{tag}", ["ensemble", ens_file, "--json"], size, check_state),
                cli.op(f"rho2t_{tag}", ["rho2t", state_file, "--json"], size, check_tensor),
                cli.op(f"t2rho_{tag}", ["t2rho", str(workdir / f"rho2t_{tag}.out.json"), "--json"], size, check_reload),
                cli.op(f"mar_{tag}", ["mar", state_file, "--json"], size, check_mar),
                cli.op(f"pfunc_{tag}", ["pfunc", exp_file, "--j", str(n // 2), "--json"], size, check_pfunc),
            ]
        )
    paper = cli.op("paper-example", ["paper-example", "--json"], "small", lambda doc: require(doc["pass"] is True, "paper-example failed"))
    # Small and large alternate; each rho2t runs before the t2rho that reads its output.
    ops = [paper] + [op for pair in zip(*by_size) for op in pair]
    # Every process starts cold; one small and one large call write the bytecode caches.
    return Workload(ops, ops[:3])


IN_PROCESS = {"mar_separable": mar_separable, "mar_generic": mar_generic, "conversions": conversions}
