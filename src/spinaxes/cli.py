"""Command-line interface.

Exit codes: 0 on success, 1 when an internal self-test or consistency
check fails, 2 when input fails validation.  Human-readable output prints
numbers with 9 significant digits; --json emits machine-readable documents
that reload exactly through the file loaders.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .angular import cg
from .axes import collinearity_check, extract_mar, mar_polynomial, polynomial_roots
from .errors import ConsistencyError, SpinAxesError, ValidationError
from .fileio import _document, _ensemble_from, _state_from, _tensor_from  # mar reads its input once
from .fileio import (
    dump_state,
    dump_tensor,
    load_ensemble,
    load_expansion,
    load_state,
    load_tensor,
    parse_angle,
)
from .halfint import HalfInt
from .pfunc import (
    NEGATIVITY_FLOOR,
    SphericalExpansion,
    _tensor_and_minimum,
    default_grid,
    ylm_squared_t,
)
from .symmetric import BlochVector, SeparableEnsemble, ensemble_to_rho, qubit_density, symmetric_subspace_unitary
from .tensors import SpinDensityMatrix, rho_to_t, t_to_rho, tau_operator

_Y2_RE = re.compile(r"^y2:l=(\d+),m=(-?\d+)$")

# argparse reads "-1/2" as an option string; a leading space keeps it
# positional and both int() and HalfInt.parse tolerate the whitespace.
_NEGATIVE_TOKEN = re.compile(r"^-\d+(?:/\d+)?$")


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.9g}"


def _chop(x: float, tol: float = 1e-12) -> float:
    return 0.0 if abs(x) < tol else float(x)


def _snap(a, tol: float = 1e-12) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    re = np.where(np.abs(a.real) < tol, 0.0, a.real)
    im = np.where(np.abs(a.imag) < tol, 0.0, a.imag)
    return re + 1j * im


def _fmt_complex(z: complex) -> str:
    re_part = _fmt(z.real)
    im = float(z.imag) + 0.0
    return f"{re_part}{'-' if im < 0 else '+'}{_fmt(abs(im))}j"


def _print_matrix(m: np.ndarray) -> None:
    for row in np.asarray(m, dtype=complex):
        print("  " + " ".join(_fmt_complex(z) for z in row))


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _axes_text(axes) -> str:
    parts = []
    for axis, run in itertools.groupby(axes):
        count = len(list(run))
        item = f"({_fmt(axis.theta)}, {_fmt(axis.phi)})"
        parts.append(f"{item} x{count}" if count > 1 else item)
    return ", ".join(parts)


def _mar_report_text(m, collinear: bool, tol: float) -> None:
    print(f"j = {m.j} (doubled {m.j.doubled})")
    for entry in m.ranks:
        if entry.radius <= tol:
            print(f"rank {entry.rank}: radius 0")
            continue
        sign = "-" if entry.sign < 0 else "+"
        print(f"rank {entry.rank}: radius {_fmt(entry.radius)}, sign {sign}, residual {_fmt(entry.residual)}")
        print(f"  axes: {_axes_text(entry.axes)}")
    print(f"collinear: {'yes' if collinear else 'no'}")


def _mar_report_json(m, collinear: bool) -> dict:
    ranks = []
    for entry in m.ranks:
        ranks.append(
            {
                "rank": entry.rank,
                "radius": entry.radius,
                "sign": entry.sign,
                "residual": entry.residual,
                "resolved": True,
                "axes": [{"theta": a.theta, "phi": a.phi} for a in entry.axes],
            }
        )
    return {"j_doubled": m.j.doubled, "ranks": ranks, "collinear": collinear}


def _write_plot(path: str, m, tol: float) -> None:
    lines = ["rank,x1,y1,z1,x2,y2,z2"]
    for entry in m.ranks:
        if entry.radius <= tol:
            continue
        for axis in entry.axes:
            u = axis.unit_vector
            cells = [str(entry.rank)] + [_fmt(v) for v in u] + [_fmt(v) for v in -u]
            lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tensor_text(t, clean=float) -> None:
    print("k q re im")
    for (k, q), z in t.table().items():
        print(f"{k} {q} {_fmt(clean(z.real))} {_fmt(clean(z.imag))}")


def cmd_rho2t(args) -> int:
    rho = load_state(args.state)
    t = rho_to_t(rho)
    if args.json:
        _emit_json(dump_tensor(t))
    else:
        _tensor_text(t)
    return 0


def cmd_t2rho(args) -> int:
    t = load_tensor(args.tensor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = t_to_rho(t)
    min_eigenvalue, physical = rho.min_eigenvalue(), rho.is_physical
    if args.json:
        doc = dump_state(rho)
        doc.update(min_eigenvalue=min_eigenvalue, physical=physical, warnings=[str(w.message) for w in caught])
        _emit_json(doc)
        return 0
    print(f"j = {rho.j} (doubled {rho.j.doubled})")
    _print_matrix(rho.matrix)
    print(f"min eigenvalue: {_fmt(min_eigenvalue)}")
    print("state: physical" if physical else "state: non-physical (negative eigenvalue)")
    return 0


def cmd_ensemble(args) -> int:
    if args.ensemble is None and not args.term:
        raise ValidationError("give an ensemble file or at least one --term W,THETA,PHI")
    if args.ensemble is not None and args.term:
        raise ValidationError("give either an ensemble file or --term entries, not both")
    if args.ensemble is not None:
        ens = load_ensemble(args.ensemble)
    else:
        if args.n_qubits is None:
            raise ValidationError("--n is required with --term")
        terms = []
        for spec_text in args.term:
            parts = spec_text.split(",")
            if len(parts) != 3:
                raise ValidationError(f"--term needs W,THETA,PHI, got {spec_text!r}")
            try:
                w = float(parts[0])
            except ValueError:
                raise ValidationError(f"cannot read a weight from {parts[0]!r}") from None
            terms.append((w, BlochVector(parse_angle(parts[1]), parse_angle(parts[2]))))
        ens = SeparableEnsemble(args.n_qubits, tuple(terms))
    rho = ensemble_to_rho(ens)
    if args.json:
        _emit_json(dump_state(rho))
        return 0
    print(f"{ens.n_qubits} qubits, j = {ens.j}")
    _print_matrix(rho.matrix)
    print(f"purity: {_fmt(rho.purity())}")
    return 0


def _tensor_from_input(path: str):
    kind, obj = _document(path)
    if kind == "state":
        return rho_to_t(_state_from(obj))
    if kind == "ensemble":
        return rho_to_t(ensemble_to_rho(_ensemble_from(obj)))
    if kind == "tensor":
        return _tensor_from(obj)
    raise ValidationError(f"{path}: expected a state, ensemble, or tensor file")


def _decompose(t, args):
    """The decomposition of t, its collinearity at --tol, and the --emit-plot file."""
    m = extract_mar(t)
    collinear = collinearity_check(m, args.tol)
    if args.emit_plot:
        _write_plot(args.emit_plot, m, args.tol)
    return m, collinear


def cmd_mar(args) -> int:
    m, collinear = _decompose(_tensor_from_input(args.input), args)
    if args.json:
        _emit_json(_mar_report_json(m, collinear))
    else:
        _mar_report_text(m, collinear, args.tol)
        if args.emit_plot:
            print(f"plot data written to {args.emit_plot}")
    return 0


def cmd_pfunc(args) -> int:
    j = HalfInt.parse(args.j)
    flags: list[str] = []
    source = args.source
    y2 = _Y2_RE.match(source)
    if y2:
        l, m_order = int(y2.group(1)), int(y2.group(2))
        label = f"|Y^{l}_{m_order}|^2"
        t = ylm_squared_t(l, m_order, j)
        min_value = 0.0
    else:
        if source == "uniform":
            label, lam = "uniform", SphericalExpansion.uniform()
        else:
            label, lam = f"expansion from {source}", load_expansion(source)
        band = args.lmax if args.lmax is not None else lam.l_max
        # a grid for a lower band than the expansion's would alias it
        if band < lam.l_max:
            raise ValidationError(f"--lmax {band} is below the expansion's degree {lam.l_max}")
        grid = default_grid(band, j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # the minimum of the grid values t_from_distribution checked
            t, min_value = _tensor_and_minimum(lam, j, grid)
        flags.extend(str(w.message) for w in caught)
    mar, collinear = _decompose(t, args)
    if args.json:
        _emit_json(
            {
                "source": label,
                "tensor": dump_tensor(t),
                "mar": _mar_report_json(mar, collinear),
                "min_weight_value": min_value,
                "non_classical": min_value < NEGATIVITY_FLOOR,
                "warnings": flags,
            }
        )
        return 0
    print(f"source: {label}, j = {j}")
    _tensor_text(t)
    _mar_report_text(mar, collinear, args.tol)
    if min_value < NEGATIVITY_FLOOR:
        print(f"negativity: min weight value {_fmt(min_value)} (non-classical input)")
    else:
        print("negativity: none")
    for line in flags:
        print(f"warning: {line}")
    if args.emit_plot:
        print(f"plot data written to {args.emit_plot}")
    return 0


def _paper_reference():
    s3 = math.sqrt(3.0)
    return {
        "rho_comp": np.array(
            [[6, 0, 0, 2], [0, 2, 2, 0], [0, 2, 2, 0], [2, 0, 0, 6]], dtype=float
        )
        / 16.0,
        "rho_jm": np.array([[6, 0, 2], [0, 4, 0], [2, 0, 6]], dtype=float) / 16.0,
        "t20": 1.0 / (4.0 * math.sqrt(2.0)),
        "t22": s3 / 8.0,
        "quartic": np.array([s3 / 8.0, 0.0, s3 / 4.0, 0.0, s3 / 8.0]),
        "axis": (math.pi / 2.0, math.pi / 2.0),
    }


def cmd_paper_example(args) -> int:
    tol = 1e-9
    ref = _paper_reference()
    ens = SeparableEnsemble(
        2,
        (
            (0.25, BlochVector(math.pi / 2, 0.0)),
            (0.25, BlochVector(math.pi / 2, math.pi)),
            (0.25, BlochVector(0.0, 0.0)),
            (0.25, BlochVector(math.pi, 0.0)),
        ),
    )
    rho_comp = sum(w * np.kron(qubit_density(d), qubit_density(d)) for w, d in ens.terms)
    u = symmetric_subspace_unitary(2)
    coupled = u @ rho_comp @ u.conj().T
    rho = ensemble_to_rho(ens)
    t = rho_to_t(rho)
    quartic = mar_polynomial(t, 2)
    roots, at_inf = polynomial_roots(quartic)
    roots = sorted(roots, key=lambda rm: -rm[0].imag)
    m = extract_mar(t)
    rank2 = m.rank(2)
    collinear = collinearity_check(m, tol)

    deviations = {
        "computational-basis matrix": float(np.abs(rho_comp - ref["rho_comp"]).max()),
        "ladder-basis matrix": float(np.abs(rho.matrix - ref["rho_jm"]).max()),
        "coupled-basis cross-check": float(np.abs(coupled[:3, :3] - rho.matrix).max()),
        "singlet weight": abs(float(coupled[3, 3].real)),
        "t^1 components": float(np.abs(t.rank(1)).max()),
        "t^2_0": abs(t.item(2, 0) - ref["t20"]),
        "t^2_2": abs(t.item(2, 2) - ref["t22"]),
        "t^2_-2": abs(t.item(2, -2) - ref["t22"]),
        "quartic coefficients": float(np.abs(quartic - ref["quartic"]).max()),
        "rank-2 fit residual": rank2.residual,
    }
    root_set = {}
    for z, mult in roots:
        key = "+i" if z.imag > 0 else "-i"
        root_set[key] = (z, mult)
    if set(root_set) == {"+i", "-i"} and all(mult == 2 for _, mult in root_set.values()) and at_inf == 0:
        deviations["roots"] = max(abs(root_set["+i"][0] - 1j), abs(root_set["-i"][0] + 1j))
    else:
        deviations["roots"] = math.inf
    if len(rank2.axes) == 2:
        deviations["axes"] = max(
            max(abs(a.theta - ref["axis"][0]), abs(a.phi - ref["axis"][1])) for a in rank2.axes
        )
    else:
        deviations["axes"] = math.inf
    deviations["collinearity"] = 0.0 if collinear else math.inf
    failures = {name: dev for name, dev in deviations.items() if not dev <= tol}
    worst = max(deviations.values())

    if args.json:
        _emit_json(
            {
                "ensemble": {
                    "n_qubits": 2,
                    "terms": [{"weight": w, "theta": d.theta, "phi": d.phi} for w, d in ens.terms],
                },
                "rho_computational": [[[z.real, z.imag] for z in row] for row in rho_comp],
                "state": dump_state(rho),
                "tensor": dump_tensor(t),
                "quartic": [[z.real, z.imag] for z in quartic],
                "roots": [{"re": z.real, "im": z.imag, "multiplicity": mult} for z, mult in roots],
                "count_at_infinity": at_inf,
                "axes": [{"theta": a.theta, "phi": a.phi} for a in rank2.axes],
                "radius": rank2.radius,
                "collinear": collinear,
                "max_deviation": worst,
                "pass": not failures,
            }
        )
        return 0 if not failures else 1

    print("four-point ensemble: weights 1/4 along +x, -x, +z, -z; N = 2 qubits, j = 1")
    print("computational-basis density matrix (|uu>, |ud>, |du>, |dd>):")
    _print_matrix(_snap(rho_comp))
    print("ladder-basis density matrix (|1 1>, |1 0>, |1 -1>):")
    _print_matrix(_snap(rho.matrix))
    print(f"singlet weight after coupling: {_fmt(_chop(coupled[3, 3].real))}")
    print("tensor parameters:")
    _tensor_text(t, _chop)
    print("rank-2 polynomial (Z^4 .. Z^0): " + " ".join(_fmt_complex(z) for z in _snap(quartic)))
    print(f"roots: +1j x2, -1j x2 (at infinity: {at_inf})")
    print(f"rank 1: radius {_fmt(m.rank(1).radius)}")
    print(f"rank 2: radius {_fmt(rank2.radius)}, residual below tolerance")
    if failures:
        for name, dev in failures.items():
            print(f"self-test FAILED: {name} deviates by {dev:.3g}", file=sys.stderr)
        return 1
    print(f"self-test: all values match expected within {tol:g}")
    print("axes: (pi/2, pi/2) x2 - collinear")
    return 0


def cmd_cg(args) -> int:
    vals = [HalfInt.parse(s) for s in (args.j1, args.j2, args.j, args.m1, args.m2, args.m)]
    c = cg(*vals)
    ms = c.magnitude_squared
    if args.json:
        _emit_json(
            {
                "sign": c.sign,
                "magnitude_squared": {"numerator": ms.numerator, "denominator": ms.denominator},
                "value": float(c),
            }
        )
        return 0
    j1, j2, jt, m1, m2, mt = (s.strip() for s in (args.j1, args.j2, args.j, args.m1, args.m2, args.m))
    label = f"C({j1} {j2} {jt}; {m1} {m2} {mt})"
    if c.is_zero:
        print(f"{label} = 0")
    else:
        sign = "-" if c.sign < 0 else ""
        print(f"{label} = {sign}sqrt({ms.numerator}/{ms.denominator}) = {_fmt(float(c))}")
    return 0


def cmd_tau(args) -> int:
    j = HalfInt.parse(args.j)
    op = tau_operator(j, args.k, args.q)
    if args.json:
        _emit_json(
            {
                "j_doubled": j.doubled,
                "k": args.k,
                "q": args.q,
                "matrix": [[[z.real, z.imag] for z in row] for row in op],
            }
        )
        return 0
    print(f"tau^{args.k}_{args.q} on j = {j} (rows and columns m = +j .. -j)")
    _print_matrix(op)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinaxes",
        description="Tensor parameters and multiaxial decompositions of spin states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p = sub.add_parser("rho2t", help="tensor parameters of a state file")
    p.add_argument("state", help="state JSON file")
    add_json(p)
    p.set_defaults(func=cmd_rho2t)

    p = sub.add_parser("t2rho", help="reconstruct a density matrix from a tensor file")
    p.add_argument("tensor", help="tensor JSON file")
    add_json(p)
    p.set_defaults(func=cmd_t2rho)

    p = sub.add_parser("ensemble", help="build the ladder-basis state of an aligned-product mixture")
    p.add_argument("ensemble", nargs="?", help="ensemble JSON file")
    p.add_argument("--n", dest="n_qubits", type=int, help="qubit count when using --term")
    p.add_argument(
        "--term",
        action="append",
        default=[],
        metavar="W,THETA,PHI",
        help="inline term; angles accept pi fractions like pi/2 (repeatable)",
    )
    add_json(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("mar", help="multiaxial decomposition of a state, ensemble, or tensor file")
    p.add_argument("input", help="state, ensemble, or tensor JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="zero-radius and collinearity tolerance")
    p.add_argument("--emit-plot", metavar="PATH", help="write axis endpoints as CSV")
    add_json(p)
    p.set_defaults(func=cmd_mar)

    p = sub.add_parser("pfunc", help="tensor parameters of a coherent-state weight function")
    p.add_argument("source", help="expansion JSON file, 'uniform', or 'y2:l=L,m=M'")
    p.add_argument("--j", required=True, help="spin, as n or n/2")
    p.add_argument("--lmax", type=int, help="quadrature band limit, at least the expansion's degree")
    p.add_argument("--tol", type=float, default=1e-8, help="zero-radius and collinearity tolerance")
    p.add_argument("--emit-plot", metavar="PATH", help="write axis endpoints as CSV")
    add_json(p)
    p.set_defaults(func=cmd_pfunc)

    p = sub.add_parser("paper-example", help="reproduce the published two-qubit worked example")
    add_json(p)
    p.set_defaults(func=cmd_paper_example)

    p = sub.add_parser("cg", help="exact Clebsch-Gordan coefficient")
    for name in ("j1", "j2", "j", "m1", "m2", "m"):
        p.add_argument(name, help="half-integer, as n or n/2")
    add_json(p)
    p.set_defaults(func=cmd_cg)

    p = sub.add_parser("tau", help="irreducible tensor operator matrix")
    p.add_argument("--j", required=True, help="spin, as n or n/2")
    p.add_argument("k", type=int, help="rank")
    p.add_argument("q", type=int, help="order")
    add_json(p)
    p.set_defaults(func=cmd_tau)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [" " + tok if _NEGATIVE_TOKEN.match(tok) else tok for tok in argv]
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early; send whatever is still buffered to
        # devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpinAxesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
