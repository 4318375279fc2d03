"""Error norms, convergence studies, and the command-line interface.

Norms computed against a manufactured case with the ``NORM_DEGREE`` (8) rule:
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
import time
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import assembly as _asm
from .domain_decomposition import CG_MAX_IT, CG_TOL, solve_dd
from .fe_elements import (
    PlateDofMap,
    local_chunks,
    simplex_geometry,
    span_scalars,
    stress_span_coefficients,
)
from .geometry_mesh import Diagonal, TetMesh, TriMesh, build_body_mesh, build_plate_mesh
from .hybrid import condense, mixed_solution
from .manufactured import ManufacturedCase, default_case
from .materials import MaterialParams, c0_apply, default_params
from .quadrature import NORM_DEGREE, physical_weights, tet_rule, triangle_rule
from .solvers import SolutionFields, SolveReport, solve_saddle_point

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


def solve_mixed(body: TetMesh, plate: TriMesh, case: ManufacturedCase
                ) -> tuple[SolutionFields, SolveReport]:
    """Assemble the mixed formulation and solve it by hybridization: static
    condensation onto the face multipliers and the plate DOFs, solved by
    two-level preconditioned CG, or by a direct factor where CG would cost
    more, then the local back-substitution.  The report gives the size and
    nnz of that condensed system, the PCG iteration count and residual
    history, whether the solve gave way to the factor, the relative
    residual of the coupled system in (sigma, u, w) and the wall time from
    assembly on.  The report is also the solution's ``report``."""
    t0 = time.perf_counter()
    system = _asm.build_mixed_system(body, plate, case)
    hb, free, load = condense(system)
    y, report = hb.solve_condensed(load.r)
    sigma, x_u, rel = hb.back_substitute(y, load)
    w = np.zeros(system.pmap.n_dofs)
    w[free] = y[hb.n_lam:]
    sol = mixed_solution(system, sigma, x_u, w, replace(
        report, relative_residual=rel, wall_time=time.perf_counter() - t0))
    return sol, sol.report


def solve_displacement(body: TetMesh, plate: TriMesh, case: ManufacturedCase
                       ) -> tuple[SolutionFields, SolveReport]:
    """Assemble and solve the continuous-displacement baseline."""
    t0 = time.perf_counter()
    system = _asm.assemble_displacement_system(body, plate, case)
    M_ff, rhs_f = system.constraints.reduce(system.K, system.rhs)
    x_f, report = solve_saddle_point(M_ff, rhs_f)
    u, w = system.split(system.constraints.expand(x_f))
    report.wall_time = time.perf_counter() - t0
    sol = SolutionFields(
        method="displacement", body=body, plate=plate, params=system.params,
        u=u, w=w, pmap=system.pmap, cmap=system.cmap, report=report,
    )
    return sol, report


# ---------------------------------------------------------------------------
# Error norms.
# ---------------------------------------------------------------------------

def _body_errors(sol: SolutionFields, case: ManufacturedCase
                 ) -> tuple[float, float]:
    """Stress and displacement errors, summed one ``local_chunks`` slice
    of tets at a time, which bounds the sampled (points, 3, 3) fields."""
    rule = tet_rule(NORM_DEGREE)
    sq = sum(_body_squared_errors(sol, case, rule, c)
             for c in local_chunks(sol.body.n_tets))
    return np.sqrt(sq[0]), np.sqrt(sq[1])


def _body_squared_errors(sol: SolutionFields, case: ManufacturedCase, rule,
                         el: slice) -> np.ndarray:
    """Squared stress and displacement errors over the tets ``el``."""
    verts = sol.body.vertices[sol.body.tets[el]]
    if sol.method == "mixed-nc":
        k = sol.smap.stress
        vol = k.volume[el]
        # Contract the coefficients first: sigma_h = sum_e g_e T_e with g_e
        # the edge-e part of the spanning-function expansion.
        span = stress_span_coefficients(
            sol.smap.sign[el] * sol.sigma[sol.smap.ltg[el]], k.face_inv[el],
            k.interior_inv[el]).reshape(-1, 6, 7)
        s = span_scalars(rule.points).reshape(-1, 6, 7)
        # g[n, q, e] = span[n, e] . s[q, e]: one product per edge.
        g = np.swapaxes(span, 0, 1) @ np.moveaxis(s, 0, 2)  # (6, n, nq)
        tangents = k.tangents[el]
        T = tangents[..., :, None] * tangents[..., None, :]
        sig_h = np.moveaxis(g, 0, 2) @ T.reshape(-1, 6, 9)
        sig_h = sig_h.reshape(sig_h.shape[:2] + (3, 3))
        uc = sol.u[sol.vmap.ltg[el]].reshape(-1, 4, 3)
    else:
        grad_lambda, vol = simplex_geometry(verts)
        uc = sol.u[sol.cmap.ltg[el]].reshape(-1, 4, 3)
        grad = np.swapaxes(uc, 1, 2) @ grad_lambda
        eps = 0.5 * (grad + np.swapaxes(grad, 1, 2))
        sig_h = c0_apply(eps, sol.params)[:, None]
    pts = rule.points @ verts
    w = physical_weights(rule, vol[:, None])
    u_ex, sig_ex = case.body_fields(pts)
    d = sig_h - sig_ex
    du = rule.points @ uc - u_ex
    return np.array([np.vdot(w, np.einsum("nqab,nqab->nq", d, d)),
                     np.vdot(w, np.einsum("nqc,nqc->nq", du, du))])


def _plate_errors(pmap: PlateDofMap, w_vec: np.ndarray,
                  case: ManufacturedCase
                  ) -> tuple[float, float, float, float, float]:
    plate = pmap.mesh
    rule = triangle_rule(NORM_DEGREE)
    verts = plate.vertices[plate.triangles]
    mo = pmap.morley
    wq = physical_weights(rule, mo.area[:, None])
    pts = rule.points @ verts

    def sq(d):
        """Squared L2 norm of an (n, nq, ...) field sampled at the points."""
        d = d.reshape(d.shape[0], d.shape[1], -1)
        return float(np.vdot(wq, np.einsum("nqk,nqk->nq", d, d)))

    u_mem, grad_mem, u3, grad3 = case.plate_fields(pts)
    mc = w_vec[pmap.mem_ltg].reshape(-1, 3, 2)
    e_mem_h1 = sq((np.swapaxes(mc, 1, 2) @ mo.grad_lambda)[:, None] - grad_mem)
    e_mem_l2 = sq(rule.points @ mc - u_mem)

    w3_h, grad3_h, hess3_h = mo.fields(
        pmap.mor_sign * w_vec[pmap.mor_ltg], rule.points)
    e3_h2 = sq(hess3_h[:, None] - case.hess_u3(pts))
    e3_h1 = sq(grad3_h - grad3)
    e3_l2 = sq(w3_h - u3)
    return (np.sqrt(e_mem_h1), np.sqrt(e_mem_l2), np.sqrt(e3_h2),
            np.sqrt(e3_h1), np.sqrt(e3_l2))


def compute_error_norms(sol: SolutionFields, case: ManufacturedCase
                        ) -> ErrorRecord:
    """All seven error norms of a solved configuration."""
    err_sig, err_u = _body_errors(sol, case)
    mem_h1, mem_l2, e3_h2, e3_h1, e3_l2 = _plate_errors(sol.pmap, sol.w, case)
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
                          progress=None) -> ConvergenceReport:
    """Solve a sequence of uniformly refined configurations.

    Matching runs use body n = 2^L with plate 2n and the body-aligned
    diagonal, starting at body level 1 (the coarsest plate resolving the
    interface boundary).  Non-matching runs use plate 4n with flipped
    diagonals, starting at body level 0.  The case (by default
    ``default_case()``) gives the data and the material.
    """
    if case is None:
        case = default_case()
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
            sol, _ = solve_mixed(body, plate, case)
        else:
            sol, _ = solve_displacement(body, plate, case)
        rec = compute_error_norms(sol, case)
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

    e_alpha: float = default_params().e_alpha
    nu_alpha: float = default_params().nu_alpha
    e_beta: float = default_params().e_beta
    nu_beta: float = default_params().nu_beta
    t_beta: float = default_params().t_beta
    dd_tol: float = CG_TOL
    dd_max_it: int = CG_MAX_IT

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
    problem = _invalid(cfg)
    if problem:
        raise ConfigError(f"{path}: {problem}")
    return cfg


def _invalid(cfg: RunConfig) -> str | None:
    """The first value of ``cfg`` that no solve accepts, named by its key."""
    try:
        cfg.material_params()
    except ValueError as exc:
        return str(exc)
    if not 0 < cfg.dd_tol < 1:
        return f"dd_tol must lie in (0, 1), got {cfg.dd_tol}"
    if cfg.dd_max_it < 1:
        return f"dd_max_it must be >= 1, got {cfg.dd_max_it}"
    return None


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
    dp.add_argument("--tol", type=float,
                    help="relative CG tolerance in (0, 1) (default: dd_tol "
                    f"of --config, else {CG_TOL:g})")
    dp.add_argument("--out", help="write the CG history CSV here")
    return p


def _matching(n_body: int, n_plate: int, diagonal: Diagonal) -> bool:
    return n_plate == 2 * n_body and diagonal is Diagonal.SAME_AS_BODY


def _meshes(args, require_matching: bool = False):
    """Body and plate meshes of --body-level, --plate-level and --diagonal,
    or None after an error message when the body level is negative, the
    plate level cannot resolve the interface boundary or the meshes are
    required to match and do not."""
    if args.body_level < 0:
        print("error: --body-level must be >= 0", file=sys.stderr)
        return None
    if args.plate_level < 2:
        print("error: plate level must be >= 2 so the plate mesh resolves "
              "the interface boundary", file=sys.stderr)
        return None
    n_body = 2 ** args.body_level
    n_plate = 2 ** args.plate_level
    diagonal = Diagonal(args.diagonal)
    if require_matching and not _matching(n_body, n_plate, diagonal):
        print("error: the displacement method requires matching meshes "
              "(plate level = body level + 1, --diagonal same)",
              file=sys.stderr)
        return None
    return build_body_mesh(n_body), build_plate_mesh(n_plate, diagonal)


def _solve_command(args, cfg: RunConfig) -> int:
    meshes = _meshes(args, require_matching=args.method == "displacement")
    if meshes is None:
        return 2
    body, plate = meshes
    case = default_case(cfg.material_params())
    if args.method == "mixed-nc":
        sol, rep = solve_mixed(body, plate, case)
    else:
        sol, rep = solve_displacement(body, plate, case)
    rec = compute_error_norms(sol, case)
    row = ConvergenceRow(level=args.body_level, n_body=body.n,
                         n_plate=plate.n, h_alpha=body.h, h_beta=plate.h,
                         errors=rec)
    report = ConvergenceReport(
        method=args.method,
        matching=_matching(body.n, plate.n, plate.diagonal), rows=[row])
    system = ("condensed face-multiplier + plate system"
              if args.method == "mixed-nc" else "displacement system")
    its = ""
    if args.method == "mixed-nc":
        its = f", {rep.iterations} PCG iterations" + (
            ", then a direct factor" if rep.direct_fallback else "")
    print(f"method {args.method}: solved the {system} ({rep.size} "
          f"unknowns), residual {rep.relative_residual:.2e}{its}")
    print(format_convergence_table(report))
    if args.out:
        write_convergence_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _convergence_command(args, cfg: RunConfig) -> int:
    if args.levels < 1:
        print("error: --levels must be >= 1", file=sys.stderr)
        return 2
    report = run_convergence_study(
        args.method, args.levels, args.matching == "yes",
        default_case(cfg.material_params()),
        progress=lambda msg: print(msg, flush=True),
    )
    print(format_convergence_table(report))
    if args.out:
        write_convergence_csv(report, args.out)
        print(f"wrote {args.out}")
    return 0


def _dd_command(args, cfg: RunConfig) -> int:
    if args.tol is not None and not 0 < args.tol < 1:
        print(f"error: --tol must lie in (0, 1), got {args.tol}",
              file=sys.stderr)
        return 2
    meshes = _meshes(args)
    if meshes is None:
        return 2
    body, plate = meshes
    sol = solve_dd(body, plate, default_case(cfg.material_params()),
                   tol=cfg.dd_tol if args.tol is None else args.tol,
                   max_it=cfg.dd_max_it)
    r = sol.report
    rho = f"{r.rho_avg:.4f}" if r.iterations else "n/a"
    print(f"interface CG: {r.iterations} iterations, average reduction "
          f"{rho}, junction residual {sol.junction_residual:.3e}")
    print("iter  res_rel")
    for i, h in enumerate(r.history):
        print(f"{i:4d}  {h:.6e}")
    if args.out:
        lines = ["iter,res_rel"]
        lines += [f"{i},{h:.6e}" for i, h in enumerate(r.history)]
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
