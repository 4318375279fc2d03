"""Error norms, convergence studies, and the command-line interface.

Norms computed against a manufactured case (quadrature degree 8 by default):
body stress and displacement L2 errors; membrane H1 seminorm and L2 error;
deflection broken-Hessian seminorm, broken-H1 seminorm, and L2 error.  Rates
are consecutive-level log2 ratios.

CLI subcommands:
  solve        one configuration, either method; error table + one-row CSV
  convergence  a level sweep; error/rate table + CSV
  dd-solve     interface CG solve; history CSV (iter,res_rel) + summary

Exit codes: 0 success, 1 numerical failure, 2 argument/config errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import assembly as _asm
from .domain_decomposition import solve_dd
from .fe_elements import (
    BodyCGDofMap,
    BodyDGDofMap,
    MorleyBatch,
    PlateDofMap,
    StressBatch,
    StressDofMap,
    simplex_geometry,
    span_scalars,
)
from .geometry_mesh import Diagonal, TetMesh, TriMesh, build_body_mesh, build_plate_mesh
from .hybrid import solve_hybrid
from .manufactured import ManufacturedCase, default_case
from .materials import MaterialParams, c0_apply, default_params
from .quadrature import physical_weights, tet_rule, triangle_rule
from .solvers import SolveReport, solve_saddle_point

__all__ = [
    "ErrorRecord",
    "SolutionFields",
    "solve_mixed",
    "solve_displacement",
    "compute_error_norms",
    "ConvergenceReport",
    "run_convergence_study",
    "write_convergence_csv",
    "format_convergence_table",
    "RunConfig",
    "load_config",
    "cli_main",
    "main",
]

ERROR_FIELDS = (
    "sigma", "u", "umem_h1", "umem_l2", "u3_h2", "u3_h1", "u3_l2",
)


@dataclass
class ErrorRecord:
    """The seven error norms of a coupled solution."""

    sigma: float
    u: float
    umem_h1: float
    umem_l2: float
    u3_h2: float
    u3_h1: float
    u3_l2: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, f) for f in ERROR_FIELDS)


@dataclass
class SolutionFields:
    """A solved configuration: discrete fields plus their DOF maps."""

    method: str
    body: TetMesh
    plate: TriMesh
    params: MaterialParams
    u: np.ndarray
    w: np.ndarray
    pmap: PlateDofMap
    sigma: np.ndarray | None = None
    smap: StressDofMap | None = None
    vmap: BodyDGDofMap | None = None
    cmap: BodyCGDofMap | None = None


def solve_mixed(body: TetMesh, plate: TriMesh, case: ManufacturedCase,
                params: MaterialParams | None = None,
                quad_volume: int = 4, quad_interface: int = 6,
                ) -> tuple[SolutionFields, SolveReport]:
    """Assemble the mixed formulation and solve it by hybridization: static
    condensation onto the face multipliers and the plate DOFs.  The report
    gives the size and nnz of that condensed system and the relative
    residual of the coupled system in (sigma, u, w)."""
    if params is None:
        params = case.params
    system = _asm.build_mixed_system(
        body, plate, case, params,
        quad_volume=quad_volume, quad_interface=quad_interface,
    )
    sigma, u, w, report = solve_hybrid(system)
    sol = SolutionFields(
        method="mixed-nc", body=body, plate=plate, params=params,
        u=u, w=w, pmap=system.pmap, sigma=sigma, smap=system.smap,
        vmap=system.vmap,
    )
    return sol, report


def solve_displacement(body: TetMesh, plate: TriMesh, case: ManufacturedCase,
                       params: MaterialParams | None = None,
                       quad_volume: int = 4, quad_interface: int = 6,
                       ) -> tuple[SolutionFields, SolveReport]:
    """Assemble and solve the continuous-displacement baseline."""
    if params is None:
        params = case.params
    system = _asm.assemble_displacement_system(
        body, plate, case, params,
        quad_volume=quad_volume, quad_interface=quad_interface,
    )
    M_ff, rhs_f = system.constraints.reduce(system.K, system.rhs)
    x_f, report = solve_saddle_point(M_ff, rhs_f)
    u, w = system.split(system.constraints.expand(x_f))
    sol = SolutionFields(
        method="displacement", body=body, plate=plate, params=params,
        u=u, w=w, pmap=system.pmap, cmap=system.cmap,
    )
    return sol, report


# ---------------------------------------------------------------------------
# Error norms.
# ---------------------------------------------------------------------------

#: Quadrature points per batch of tets in the body norms, which bounds the
#: sampled (points, 3, 3) fields at the degree-8 rule.
_NORM_BATCH_POINTS = 2**15


def _body_errors(sol: SolutionFields, case: ManufacturedCase,
                 degree: int) -> tuple[float, float]:
    rule = tet_rule(degree)
    step = max(1, _NORM_BATCH_POINTS // rule.n_points)
    sq = sum(_body_squared_errors(sol, case, rule, slice(i, i + step))
             for i in range(0, sol.body.n_tets, step))
    return np.sqrt(sq[0]), np.sqrt(sq[1])


def _body_squared_errors(sol: SolutionFields, case: ManufacturedCase, rule,
                         el: slice) -> np.ndarray:
    """Squared stress and displacement errors over the tets ``el``."""
    verts = sol.body.vertices[sol.body.tets[el]]
    if sol.method == "mixed-nc":
        k = StressBatch(verts)
        vol = k.volume
        # Contract the coefficients first: sigma_h = sum_e g_e T_e with g_e
        # the edge-e part of the spanning-function expansion.
        coeffs = sol.smap.sign[el] * sol.sigma[sol.smap.ltg[el]]
        span = np.einsum("ni,nik->nk", coeffs, k.coeffs).reshape(-1, 6, 7)
        s = span_scalars(rule.points).reshape(-1, 6, 7)
        g = np.einsum("nek,qek->nqe", span, s)
        sig_h = np.einsum("nqe,neab->nqab", g, k.T)
        uc = sol.u[sol.vmap.ltg[el]].reshape(-1, 4, 3)
    else:
        grad_lambda, vol = simplex_geometry(verts)
        uc = sol.u[sol.cmap.ltg[el]].reshape(-1, 4, 3)
        grad = np.einsum("nac,nad->ncd", uc, grad_lambda)
        eps = 0.5 * (grad + np.swapaxes(grad, 1, 2))
        sig_h = c0_apply(eps, sol.params)[:, None]
    pts = rule.points @ verts
    w = physical_weights(rule, vol[:, None])
    d = sig_h - case.sigma_body(pts)
    du = np.einsum("qa,nac->nqc", rule.points, uc) - case.u_body(pts)
    return np.array([np.einsum("nq,nqab,nqab->", w, d, d),
                     np.einsum("nq,nqc,nqc->", w, du, du)])


def _plate_errors(plate: TriMesh, pmap: PlateDofMap, w_vec: np.ndarray,
                  case: ManufacturedCase, degree: int
                  ) -> tuple[float, float, float, float, float]:
    rule = triangle_rule(degree)
    verts = plate.vertices[plate.triangles]
    mo = MorleyBatch(verts)
    wq = physical_weights(rule, mo.area[:, None])
    pts = rule.points @ verts

    def sq(d):
        """Squared L2 norm of an (n, nq, ...) field sampled at the points."""
        d = d.reshape(d.shape[0], d.shape[1], -1)
        return float(np.einsum("nq,nqk,nqk->", wq, d, d))

    mc = w_vec[pmap.mem_ltg].reshape(-1, 3, 2)
    grad_h = np.einsum("nac,nad->ncd", mc, mo.grad_lambda)
    e_mem_h1 = sq(grad_h[:, None] - case.grad_u_membrane(pts))
    um_h = np.einsum("qa,nac->nqc", rule.points, mc)
    e_mem_l2 = sq(um_h - case.u_membrane(pts))

    c3 = pmap.mor_sign * w_vec[pmap.mor_ltg]
    hess_h = np.einsum("ni,nicd->ncd", c3, mo.hessians())
    e3_h2 = sq(hess_h[:, None] - case.hess_u3(pts))
    grad3_h = np.einsum("ni,nqic->nqc", c3, mo.gradients(rule.points))
    e3_h1 = sq(grad3_h - case.grad_u3(pts))
    w3_h = np.einsum("ni,nqi->nq", c3, mo.values(rule.points))
    e3_l2 = sq(w3_h - case.u3(pts))
    return (np.sqrt(e_mem_h1), np.sqrt(e_mem_l2), np.sqrt(e3_h2),
            np.sqrt(e3_h1), np.sqrt(e3_l2))


def compute_error_norms(sol: SolutionFields, case: ManufacturedCase,
                        degree: int = 8) -> ErrorRecord:
    """All seven error norms of a solved configuration."""
    err_sig, err_u = _body_errors(sol, case, degree)
    mem_h1, mem_l2, e3_h2, e3_h1, e3_l2 = _plate_errors(
        sol.plate, sol.pmap, sol.w, case, degree
    )
    return ErrorRecord(sigma=err_sig, u=err_u, umem_h1=mem_h1,
                       umem_l2=mem_l2, u3_h2=e3_h2, u3_h1=e3_h1, u3_l2=e3_l2)


# ---------------------------------------------------------------------------
# Convergence studies.
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    level: int
    n_body: int
    n_plate: int
    h_alpha: float
    h_beta: float
    errors: ErrorRecord


@dataclass
class ConvergenceReport:
    method: str
    matching: bool
    rows: list[ConvergenceRow]

    def rates(self) -> list[tuple[float, ...]]:
        """Per-row rate tuples; first row entries are nan."""
        out = [tuple([float("nan")] * len(ERROR_FIELDS))]
        for prev, cur in zip(self.rows, self.rows[1:]):
            e0 = prev.errors.as_tuple()
            e1 = cur.errors.as_tuple()
            out.append(tuple(np.log2(a / b) for a, b in zip(e0, e1)))
        return out


def run_convergence_study(method: str, levels: int, matching: bool,
                          case: ManufacturedCase | None = None,
                          params: MaterialParams | None = None,
                          quad_volume: int = 4, quad_interface: int = 6,
                          quad_error: int = 8,
                          progress=None) -> ConvergenceReport:
    """Solve a sequence of uniformly refined configurations.

    Matching runs use body n = 2^L with plate 2n and the body-aligned
    diagonal, starting at body level 1 (the coarsest plate resolving the
    interface boundary).  Non-matching runs use plate 4n with flipped
    diagonals, starting at body level 0.
    """
    if case is None:
        case = default_case(params)
    if params is None:
        params = case.params
    if method not in ("mixed-nc", "displacement"):
        raise ValueError(f"unknown method {method!r}")
    if method == "displacement" and not matching:
        raise ValueError("the displacement method requires matching meshes")
    start = 1 if matching else 0
    rows = []
    for lvl in range(start, start + levels):
        n_body = 2 ** lvl
        if matching:
            n_plate = 2 * n_body
            diagonal = Diagonal.SAME_AS_BODY
        else:
            n_plate = 4 * n_body
            diagonal = Diagonal.FLIPPED
        if progress is not None:
            progress(f"level {lvl}: body n={n_body}, plate n={n_plate}")
        body = build_body_mesh(n_body)
        plate = build_plate_mesh(n_plate, diagonal)
        if method == "mixed-nc":
            sol, _ = solve_mixed(body, plate, case, params,
                                 quad_volume, quad_interface)
        else:
            sol, _ = solve_displacement(body, plate, case, params,
                                        quad_volume, quad_interface)
        rec = compute_error_norms(sol, case, degree=quad_error)
        rows.append(ConvergenceRow(level=lvl, n_body=n_body, n_plate=n_plate,
                                   h_alpha=body.h, h_beta=plate.h, errors=rec))
        del sol
    return ConvergenceReport(method=method, matching=matching, rows=rows)


def write_convergence_csv(report: ConvergenceReport, path: str) -> None:
    """Deterministic CSV: header, then one row per level, %.6e numbers.
    Rate fields of the first level are empty."""
    header = ["level", "n_body", "n_plate", "h_alpha", "h_beta"]
    for name in ERROR_FIELDS:
        header += [f"err_{name}", f"rate_{name}"]
    lines = [",".join(header)]
    rates = report.rates()
    for row, rate in zip(report.rows, rates):
        cells = [str(row.level), str(row.n_body), str(row.n_plate),
                 f"{row.h_alpha:.6e}", f"{row.h_beta:.6e}"]
        for e, r in zip(row.errors.as_tuple(), rate):
            cells.append(f"{e:.6e}")
            cells.append("" if np.isnan(r) else f"{r:.6e}")
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def format_convergence_table(report: ConvergenceReport) -> str:
    """Human-readable aligned table: errors with rates in parentheses."""
    titles = {
        "sigma": "||sig-sig_h||", "u": "||u-u_h||", "umem_h1": "|um-um_h|_1",
        "umem_l2": "||um-um_h||", "u3_h2": "|u3-u3h|_2h",
        "u3_h1": "|u3-u3h|_1h", "u3_l2": "||u3-u3h||",
    }
    head = ["lvl", "body", "plate"] + [titles[n] for n in ERROR_FIELDS]
    rates = report.rates()
    body_rows = []
    for row, rate in zip(report.rows, rates):
        cells = [str(row.level), str(row.n_body), str(row.n_plate)]
        for e, r in zip(row.errors.as_tuple(), rate):
            txt = f"{e:.3e}"
            if not np.isnan(r):
                txt += f" ({r:4.2f})"
            cells.append(txt)
        body_rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in body_rows))
              for i, h in enumerate(head)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(head), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in body_rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run configuration.
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Defaults overridable by a `key = value` config file."""

    e_alpha: float = 100.0
    nu_alpha: float = 0.3
    e_beta: float = default_params().e_beta
    nu_beta: float = 0.3
    t_beta: float = 0.02
    quad_volume: int = 4
    quad_interface: int = 6
    quad_error: int = 8
    dd_tol: float = 1e-6
    dd_max_it: int = 200

    def material_params(self) -> MaterialParams:
        return MaterialParams(e_alpha=self.e_alpha, nu_alpha=self.nu_alpha,
                              e_beta=self.e_beta, nu_beta=self.nu_beta,
                              t_beta=self.t_beta)


class ConfigError(Exception):
    pass


def load_config(path: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are
    errors."""
    cfg = RunConfig()
    types = {f.name: f.type for f in dc_fields(RunConfig)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = types[key]
            try:
                parsed = int(val) if kind in ("int", int) else float(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                                  f"{val!r}") from exc
            setattr(cfg, key, parsed)
    return cfg


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

_CSV_HELP = (
    "CSV columns (convergence/solve): level,n_body,n_plate,h_alpha,h_beta, "
    "then err_<norm>,rate_<norm> for the seven norms "
    + ",".join(ERROR_FIELDS)
    + "; dd-solve CSV: iter,res_rel. Numbers use %.6e."
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bodyplate",
        description="Coupled elastic-body/plate finite element studies. "
        + _CSV_HELP,
    )
    p.add_argument("--config", help="key = value config file")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("solve", help="solve one configuration",
                        description=_CSV_HELP)
    sp.add_argument("--method", choices=["mixed-nc", "displacement"],
                    default="mixed-nc")
    sp.add_argument("--body-level", type=int, required=True,
                    help="body mesh level L; n = 2^L cells per edge")
    sp.add_argument("--plate-level", type=int, required=True,
                    help="plate mesh level M; n = 2^M cells per half-edge")
    sp.add_argument("--diagonal", choices=["same", "flipped"], default="same")
    sp.add_argument("--out", help="write a one-row CSV here")

    cp = sub.add_parser("convergence", help="run a refinement study",
                        description=_CSV_HELP)
    cp.add_argument("--method", choices=["mixed-nc", "displacement"],
                    default="mixed-nc")
    cp.add_argument("--levels", type=int, required=True)
    cp.add_argument("--matching", choices=["yes", "no"], default="yes")
    cp.add_argument("--out", help="write the study CSV here")

    dp = sub.add_parser("dd-solve", help="interface CG solve",
                        description=_CSV_HELP)
    dp.add_argument("--body-level", type=int, required=True)
    dp.add_argument("--plate-level", type=int, required=True)
    dp.add_argument("--diagonal", choices=["same", "flipped"], default="same")
    dp.add_argument("--tol", type=float, default=1e-6)
    dp.add_argument("--out", help="write the CG history CSV here")
    return p


def _solve_command(args, cfg: RunConfig) -> int:
    if args.plate_level < 2:
        print("error: plate level must be >= 2 so the plate mesh resolves "
              "the interface boundary", file=sys.stderr)
        return 2
    n_body = 2 ** args.body_level
    n_plate = 2 ** args.plate_level
    diagonal = (Diagonal.SAME_AS_BODY if args.diagonal == "same"
                else Diagonal.FLIPPED)
    params = cfg.material_params()
    case = default_case(params)
    if args.method == "displacement" and (
            n_plate != 2 * n_body or diagonal != Diagonal.SAME_AS_BODY):
        print("error: the displacement method requires matching meshes "
              "(plate level = body level + 1, --diagonal same)",
              file=sys.stderr)
        return 2
    body = build_body_mesh(n_body)
    plate = build_plate_mesh(n_plate, diagonal)
    if args.method == "mixed-nc":
        sol, rep = solve_mixed(body, plate, case, params,
                               cfg.quad_volume, cfg.quad_interface)
    else:
        sol, rep = solve_displacement(body, plate, case, params,
                                      cfg.quad_volume, cfg.quad_interface)
    rec = compute_error_norms(sol, case, degree=cfg.quad_error)
    row = ConvergenceRow(level=args.body_level, n_body=n_body,
                         n_plate=n_plate, h_alpha=body.h, h_beta=plate.h,
                         errors=rec)
    report = ConvergenceReport(method=args.method,
                               matching=(n_plate == 2 * n_body
                                         and diagonal == Diagonal.SAME_AS_BODY),
                               rows=[row])
    system = ("condensed face-multiplier + plate system"
              if args.method == "mixed-nc" else "displacement system")
    print(f"method {args.method}: solved the {system} ({rep.size} "
          f"unknowns), residual {rep.relative_residual:.2e}")
    print(format_convergence_table(report))
    if args.out:
        write_convergence_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _convergence_command(args, cfg: RunConfig) -> int:
    if args.levels < 1:
        print("error: --levels must be >= 1", file=sys.stderr)
        return 2
    params = cfg.material_params()
    case = default_case(params)
    report = run_convergence_study(
        args.method, args.levels, args.matching == "yes", case, params,
        cfg.quad_volume, cfg.quad_interface, cfg.quad_error,
        progress=lambda msg: print(msg, flush=True),
    )
    print(format_convergence_table(report))
    if args.out:
        write_convergence_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _dd_command(args, cfg: RunConfig) -> int:
    if args.plate_level < 2:
        print("error: plate level must be >= 2 so the plate mesh resolves "
              "the interface boundary", file=sys.stderr)
        return 2
    n_body = 2 ** args.body_level
    n_plate = 2 ** args.plate_level
    diagonal = (Diagonal.SAME_AS_BODY if args.diagonal == "same"
                else Diagonal.FLIPPED)
    params = cfg.material_params()
    case = default_case(params)
    body = build_body_mesh(n_body)
    plate = build_plate_mesh(n_plate, diagonal)
    sol = solve_dd(body, plate, case, params,
                   quad_volume=cfg.quad_volume,
                   quad_interface=cfg.quad_interface,
                   tol=args.tol, max_it=cfg.dd_max_it)
    r = sol.report
    if not r.converged:
        print(f"error: interface CG did not converge in {r.iterations} "
              "iterations; history: "
              + " ".join(f"{h:.3e}" for h in r.history_u), file=sys.stderr)
        return 1
    rho = f"{r.rho_avg:.4f}" if r.iterations else "n/a"
    print(f"interface CG: {r.iterations} iterations, average reduction "
          f"{rho}, junction residual {sol.junction_residual:.3e}")
    print("iter  res_rel")
    for i, h in enumerate(r.history_u):
        print(f"{i:4d}  {h:.6e}")
    if args.out:
        lines = ["iter,res_rel"]
        lines += [f"{i},{h:.6e}" for i, h in enumerate(r.history_u)]
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            return _solve_command(args, cfg)
        if args.command == "convergence":
            return _convergence_command(args, cfg)
        if args.command == "dd-solve":
            return _dd_command(args, cfg)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
