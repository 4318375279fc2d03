"""Error norms, convergence reporting, run configuration, and the CLI.

The error integrator is checked against closed-form norms (the error of the
zero solution equals the norm of the exact field, computable by hand for the
constant-stress case), the rate table against hand-built error sequences, the
CSV writer against its documented format, the config parser against good and
bad inputs, and the command-line entry against its exit-code contract.
"""

import os
import re
import subprocess
import sys
import time
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd_module
from bodyplate import fe_elements
from bodyplate import hybrid
from bodyplate import verification_cli as vcli
from bodyplate.domain_decomposition import CG_MAX_IT, CG_TOL, solve_dd
from bodyplate.solvers import SolutionFields, SolveReport
from bodyplate.fe_elements import (BodyDGDofMap, PlateDofMap, StressBatch,
                                   StressDofMap)
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.manufactured import constant_stress_case, default_case
from bodyplate.materials import default_params
from test_batched_kernel import build


# ---------------------------------------------------------------------------
# Direct solves.
# ---------------------------------------------------------------------------

class TestSolvers:
    def test_mixed_smoke(self):
        case = default_case()
        body = build_body_mesh(1)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        sol, report = vcli.solve_mixed(body, plate, case)
        assert sol.method == "mixed-nc"
        assert sol.sigma is not None and sol.smap is not None
        assert sol.sigma.shape == (sol.smap.n_dofs,)
        assert sol.u.shape == (sol.vmap.n_dofs,)
        assert sol.w.shape == (sol.pmap.n_dofs,)
        assert report.relative_residual < 1e-10

    @staticmethod
    def kept_bytes(sol):
        """Bytes of the arrays a solution keeps beside sigma, u and w."""
        kept = 0
        for f in dc_fields(sol):
            if f.name in ("sigma", "u", "w"):
                continue
            value = getattr(sol, f.name)
            for a in (value if isinstance(value, tuple) else (value,)):
                if isinstance(a, np.ndarray):
                    kept += (a if a.base is None else a.base).nbytes
        return kept

    @staticmethod
    def stress_bytes(sol):
        """Bytes of the arrays of a solution's stress element."""
        return sum(a.nbytes for a in vars(sol.smap.stress).values())

    def test_mixed_solution_keeps_72_doubles_per_tet(self):
        # Beside the fields, a solution keeps no array of its own, only its
        # DOF maps, whose stress map holds the solve's stress element for
        # the norms (115 doubles per tet, the object the solve read): a kept
        # solution stays alive while the next solve runs, so every kept
        # byte adds to the peak.
        case = default_case()
        body = build_body_mesh(2)
        sol, _ = vcli.solve_mixed(body, build_plate_mesh(8, Diagonal.FLIPPED),
                                  case)
        assert "stress" in vars(sol.smap)
        assert self.kept_bytes(sol) <= 72 * 8 * body.n_tets
        assert self.stress_bytes(sol) <= 115 * 8 * body.n_tets

    def test_dd_solution_keeps_72_doubles_per_tet(self):
        case = default_case()
        body = build_body_mesh(2)
        sol = solve_dd(body, build_plate_mesh(8, Diagonal.FLIPPED), case)
        assert "stress" in vars(sol.smap)
        assert self.kept_bytes(sol) <= 72 * 8 * body.n_tets
        assert self.stress_bytes(sol) <= 115 * 8 * body.n_tets

    def test_stress_batch_keeps_no_block(self):
        # The body's stress element keeps five per-tet arrays, 115 doubles
        # per tet, none of more than 36: no dense coefficients (1,764
        # doubles per tet), no edge pairing and no dyads.
        body = build_body_mesh(3)
        arrays = vars(StressBatch(body.vertices[body.tets]))
        assert sorted(arrays) == ["face_inv", "interior_inv",
                                  "tangent_gradients", "tangents", "volume"]
        for a in arrays.values():
            assert len(a) == body.n_tets and a.size <= 36 * body.n_tets
        assert sum(a.size for a in arrays.values()) == 115 * body.n_tets

    @pytest.mark.parametrize("method", ["mixed", "dd"])
    def test_solution_carries_the_stress_element_of_its_solve(
            self, monkeypatch, method):
        # The solution's stress element is the very object that its
        # BlockSystem and HybridBody read, through the one stress map that
        # they share: no copy, no second build.
        seen = {}

        def seeing(original):
            def wrapper(system):
                hb, free, load = original(system)
                seen.update(system=system, hb=hb)
                return hb, free, load
            return wrapper

        for module in (vcli, dd_module):
            monkeypatch.setattr(module, "condense",
                                seeing(getattr(module, "condense")))
        case = default_case()
        body, plate = build_body_mesh(2), build_plate_mesh(8)
        sol = (vcli.solve_mixed(body, plate, case)[0] if method == "mixed"
               else solve_dd(body, plate, case))
        assert sol.smap is seen["system"].smap is seen["hb"].smap
        assert "stress" in vars(sol.smap)

    def test_every_solver_returns_one_result_and_report(self):
        # The three solves return the same result type carrying the same
        # report type; the DD report gives the size and nnz of the same
        # condensed S that the mixed solve solves whole.
        case = default_case()
        body = build_body_mesh(2)
        mixed, mixed_report = vcli.solve_mixed(body, build_plate_mesh(4),
                                               case)
        disp, disp_report = vcli.solve_displacement(body, build_plate_mesh(4),
                                                    case)
        dd = solve_dd(body, build_plate_mesh(4), case)
        for sol, report in ((mixed, mixed_report), (disp, disp_report),
                            (dd, dd.report)):
            assert type(sol) is SolutionFields
            assert type(report) is SolveReport
            assert sol.report is report
            assert report.converged
        assert (dd.report.size, dd.report.nnz) == (mixed_report.size,
                                                   mixed_report.nnz)
        assert dd.report.relative_residual <= 1e-10
        assert mixed.junction_residual is None
        assert dd.junction_residual <= 1e-5

    def test_wall_time_covers_the_assembly(self, monkeypatch):
        # A 50 ms sleep in each solver's assembly call shows in its report.
        def slowed(original):
            def wrapper(*args, **kwargs):
                time.sleep(0.05)
                return original(*args, **kwargs)
            return wrapper

        for module, name in ((asm, "build_mixed_system"),
                             (dd_module, "build_mixed_system"),
                             (asm, "assemble_displacement_system")):
            monkeypatch.setattr(module, name, slowed(getattr(module, name)))
        case = default_case()
        body = build_body_mesh(2)
        reports = (
            vcli.solve_mixed(body, build_plate_mesh(4), case)[1],
            vcli.solve_displacement(body, build_plate_mesh(4), case)[1],
            solve_dd(body, build_plate_mesh(4), case).report,
        )
        for report in reports:
            assert report.wall_time >= 0.05

    def test_dd_norms_build_no_stress_batch(self, monkeypatch):
        # A solve_dd result carries the solve's stress element in its
        # stress map, so its norms take sigma_h through it and build no
        # StressBatch.
        case = default_case()
        sol = solve_dd(build_body_mesh(2),
                       build_plate_mesh(8, Diagonal.FLIPPED), case)

        def refused(*args, **kwargs):
            raise AssertionError("the norms built a StressBatch")

        monkeypatch.setattr(fe_elements, "StressBatch", refused)
        assert all(np.isfinite(vcli.compute_error_norms(sol, case).as_tuple()))

    @pytest.mark.parametrize("meshes", ["kuhn", "jittered"])
    def test_hybrid_body_keeps_no_local_block(self, meshes):
        # The set-up keeps the factors of the local elimination (1,485
        # doubles per tet) and the stress element (115), never
        # the blocks A_T, B_T or M_T^-1 themselves, through a solve.
        if meshes == "kuhn":
            body, plate = build_body_mesh(3), build_plate_mesh(
                12, Diagonal.FLIPPED)
        else:
            body, plate = build((7, 3, (8, Diagonal.FLIPPED)))
        hb, _, load = hybrid.condense(asm.build_mixed_system(
            body, plate, default_case()))
        hb.back_substitute(hb.solve_condensed(load.r)[0], load)
        nt = body.n_tets
        bases = {}
        for owner in (hb, hb.smap.stress):
            for value in vars(owner).values():
                if isinstance(value, np.ndarray):
                    base = value if value.base is None else value.base
                    bases[id(base)] = base
        for a in bases.values():
            assert a.shape not in ((nt, 54, 54), (nt, 42, 42), (nt, 12, 42))
        assert sum(a.nbytes for a in bases.values()) <= 1900 * 8 * nt

    def test_displacement_smoke(self):
        case = default_case()
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        sol, report = vcli.solve_displacement(body, plate, case)
        assert sol.method == "displacement"
        assert sol.sigma is None
        assert sol.cmap is not None
        assert sol.u.shape == (sol.cmap.n_dofs,)
        assert report.relative_residual < 1e-10

    def test_displacement_norms_are_pinned(self):
        # The seven norms to roundoff: of the displacement baseline (no other
        # test checks its loads), and of the mixed and DD solves on a
        # matching and a non-matching pair, so that a change meant to leave
        # the rules and the solves as they are shows any drift.
        case = default_case()
        body = build_body_mesh(2)
        matching = build_plate_mesh(4)
        flipped = build_plate_mesh(8, Diagonal.FLIPPED)
        for sol, expected in (
            (vcli.solve_displacement(body, matching, case)[0],
             [307.75184599616443, 0.7537165895939332, 4.317103015123003,
              0.6100753123743314, 9.176939985216922, 1.5374228510272532,
              0.8991900457270154]),
            (vcli.solve_mixed(body, matching, case)[0],
             [89.24868459157089, 0.6457999050373789, 4.3171198796535855,
              0.610061401538106, 8.824386224405115, 1.492433154593008,
              0.9347275167520603]),
            (vcli.solve_mixed(body, flipped, case)[0],
             [82.27689312598153, 0.3286976814796543, 2.437315927373007,
              0.353980294926702, 4.948526667740904, 0.4673282405440638,
              0.2940076602551515]),
            (solve_dd(body, flipped, case),
             [82.27689311681152, 0.32869766473863127, 2.4373159273746348,
              0.35398029492882505, 4.948526659255986, 0.4673282433241717,
              0.29400766015386687]),
        ):
            assert_allclose(vcli.compute_error_norms(sol, case).as_tuple(),
                            expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Error norms.
# ---------------------------------------------------------------------------

class TestErrorNorms:
    def test_zero_solution_constant_case_oracle(self):
        # With the zero discrete solution the "error" is the norm of the
        # exact field.  For the constant-stress case both body norms have
        # closed forms and the plate fields vanish identically.
        case = constant_stress_case()
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        smap = StressDofMap(body)
        vmap = BodyDGDofMap(body)
        pmap = PlateDofMap(plate)
        sol = vcli.SolutionFields(
            method="mixed-nc", body=body, plate=plate, params=case.params,
            u=np.zeros(vmap.n_dofs), w=np.zeros(pmap.n_dofs), pmap=pmap,
            sigma=np.zeros(smap.n_dofs), smap=smap, vmap=vmap,
        )
        rec = vcli.compute_error_norms(sol, case)
        c = np.array([0.3, -0.2, 0.5])
        lam, mu = 750.0 / 13.0, 500.0 / 13.0
        sig = np.diag([lam * c[2], lam * c[2], (2 * mu + lam) * c[2]])
        sig[0, 2] = sig[2, 0] = mu * c[0]
        sig[1, 2] = sig[2, 1] = mu * c[1]
        # Unit-volume body: ||sigma||_0 is the Frobenius norm; u = z c gives
        # ||u||_0^2 = |c|^2 * int_0^1 z^2 dz = |c|^2 / 3.
        assert_allclose(rec.sigma, np.linalg.norm(sig), rtol=1e-12)
        assert_allclose(rec.u, np.linalg.norm(c) / np.sqrt(3.0), rtol=1e-12)
        assert rec.umem_h1 == 0.0
        assert rec.umem_l2 == 0.0
        assert rec.u3_h2 == 0.0
        assert rec.u3_h1 == 0.0
        assert rec.u3_l2 == 0.0

    def test_record_field_order(self):
        rec = vcli.ErrorRecord(*range(7))
        assert rec.as_tuple() == tuple(float(i) for i in range(7))
        assert vcli.ERROR_FIELDS == (
            "sigma", "u", "umem_h1", "umem_l2", "u3_h2", "u3_h1", "u3_l2",
        )


# ---------------------------------------------------------------------------
# Convergence studies.
# ---------------------------------------------------------------------------

def _fake_report():
    def row(level, err):
        rec = vcli.ErrorRecord(*([err] * 7))
        return vcli.ConvergenceRow(level=level, n_body=2 ** level,
                                   n_plate=2 ** (level + 1),
                                   h_alpha=1.0 / 2 ** level,
                                   h_beta=1.0 / 2 ** level, errors=rec)
    return vcli.ConvergenceReport(
        method="mixed-nc", matching=True,
        rows=[row(1, 4.0e-1), row(2, 1.0e-1), row(3, 5.0e-2)],
    )


class TestConvergenceReport:
    def test_rate_formula(self):
        report = _fake_report()
        rates = report.rates()
        assert len(rates) == 3
        assert all(np.isnan(r) for r in rates[0])
        assert_allclose(rates[1], [2.0] * 7, atol=1e-14)
        assert_allclose(rates[2], [1.0] * 7, atol=1e-14)

    def test_study_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            vcli.run_convergence_study("mixed", 1, True)
        with pytest.raises(ValueError, match="matching"):
            vcli.run_convergence_study("displacement", 1, False)

    def test_non_matching_two_levels_decrease(self):
        messages = []
        report = vcli.run_convergence_study(
            "mixed-nc", 2, matching=False, progress=messages.append,
        )
        assert len(messages) == 2
        assert all("level" in m for m in messages)
        assert [r.level for r in report.rows] == [0, 1]
        assert [r.n_body for r in report.rows] == [1, 2]
        assert [r.n_plate for r in report.rows] == [4, 8]
        rates = report.rates()[1]
        # Every norm must shrink under refinement; the leading fields at a
        # decent first-order-or-better clip even at these coarse levels.
        assert all(r > 0.4 for r in rates)

    def test_matching_level_convention(self):
        report = vcli.run_convergence_study("mixed-nc", 1, matching=True)
        (row,) = report.rows
        assert (row.level, row.n_body, row.n_plate) == (1, 2, 4)
        assert report.matching


class TestConvergenceCsv:
    def test_format_and_determinism(self, tmp_path):
        report = _fake_report()
        path = tmp_path / "study.csv"
        vcli.write_convergence_csv(report, str(path))
        first = path.read_bytes()
        vcli.write_convergence_csv(report, str(path))
        assert path.read_bytes() == first

        lines = first.decode().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:5] == ["level", "n_body", "n_plate", "h_alpha",
                              "h_beta"]
        for i, name in enumerate(vcli.ERROR_FIELDS):
            assert header[5 + 2 * i] == f"err_{name}"
            assert header[6 + 2 * i] == f"rate_{name}"

        row0 = lines[1].split(",")
        assert row0[0] == "1"
        num = re.compile(r"^-?\d\.\d{6}e[+-]\d{2,3}$")
        assert num.match(row0[3]) and num.match(row0[4])
        for i in range(7):
            assert num.match(row0[5 + 2 * i])
            assert row0[6 + 2 * i] == ""  # no rate on the first level
        row1 = lines[2].split(",")
        for i in range(7):
            assert num.match(row1[5 + 2 * i])
            assert float(row1[6 + 2 * i]) == pytest.approx(2.0)

    def test_table_contains_rates(self):
        table = vcli.format_convergence_table(_fake_report())
        assert "(2.00)" in table
        assert "||sig-sig_h||" in table
        assert "|u3-u3h|_2h" in table
        assert len(table.splitlines()) == 5


# ---------------------------------------------------------------------------
# Run configuration.
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_match_materials(self):
        cfg = vcli.RunConfig()
        p = cfg.material_params()
        d = default_params()
        for key in ("e_alpha", "nu_alpha", "e_beta", "nu_beta", "t_beta"):
            assert getattr(p, key) == getattr(d, key), key
        assert cfg.dd_tol == CG_TOL
        assert cfg.dd_max_it == CG_MAX_IT

    def test_load_good_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# material overrides\n"
            "e_alpha = 2e2\n"
            "\n"
            "dd_max_it = 500   # a longer interface CG budget\n"
            "dd_tol=1e-8\n"
        )
        cfg = vcli.load_config(str(path))
        assert cfg.e_alpha == 200.0
        assert cfg.dd_max_it == 500
        assert isinstance(cfg.dd_max_it, int)
        assert cfg.dd_tol == 1e-8
        # Untouched keys keep their defaults.
        assert cfg.nu_alpha == 0.3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("youngs_modulus = 1\n")
        with pytest.raises(vcli.ConfigError, match="unknown key"):
            vcli.load_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("e_alpha 100\n")
        with pytest.raises(vcli.ConfigError, match="key = value"):
            vcli.load_config(str(path))

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dd_max_it = 4.5\n")
        with pytest.raises(vcli.ConfigError, match="bad value"):
            vcli.load_config(str(path))


# ---------------------------------------------------------------------------
# Command-line interface.
# ---------------------------------------------------------------------------

class TestCli:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert vcli.cli_main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_python_m_bodyplate_runs_without_warning(self, tmp_path):
        # The package imports verification_cli, so running that module with
        # -m makes runpy warn; the package's own __main__ does not.
        src = str(Path(vcli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src if not path else src + os.pathsep + path}
        done = subprocess.run([sys.executable, "-m", "bodyplate", "--help"],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: bodyplate")
        assert "RuntimeWarning" not in done.stderr

    def test_missing_config_file(self, tmp_path, capsys):
        rc = vcli.cli_main(["--config", str(tmp_path / "nope.cfg"),
                            "solve", "--body-level", "0",
                            "--plate-level", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        rc = vcli.cli_main(["--config", str(path), "solve",
                            "--body-level", "0", "--plate-level", "2"])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_plate_level_must_resolve_interface(self, capsys):
        for command in ("solve", "dd-solve"):
            rc = vcli.cli_main([command, "--body-level", "0",
                                "--plate-level", "1"])
            assert rc == 2
            assert "plate level" in capsys.readouterr().err

    def test_displacement_requires_matching(self, capsys):
        rc = vcli.cli_main(["solve", "--method", "displacement",
                            "--body-level", "0", "--plate-level", "3"])
        assert rc == 2
        assert "matching" in capsys.readouterr().err

    def test_solve_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        rc = vcli.cli_main(["solve", "--body-level", "0",
                            "--plate-level", "2", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "solved" in text
        assert re.search(r"residual \S+, \d+ PCG iterations", text)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("level,n_body,n_plate")
        assert lines[1].split(",")[1] == "1"

    def test_displacement_solve_runs(self, capsys):
        rc = vcli.cli_main(["solve", "--method", "displacement",
                            "--body-level", "1", "--plate-level", "2"])
        assert rc == 0
        assert "displacement" in capsys.readouterr().out

    def test_convergence_level_validation(self, capsys):
        rc = vcli.cli_main(["convergence", "--levels", "0"])
        assert rc == 2
        assert "--levels" in capsys.readouterr().err

    def test_convergence_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        rc = vcli.cli_main(["convergence", "--levels", "1",
                            "--matching", "no", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_dd_solve_history_csv(self, tmp_path, capsys):
        out = tmp_path / "dd.csv"
        rc = vcli.cli_main(["dd-solve", "--body-level", "0",
                            "--plate-level", "2", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "interface CG" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,res_rel"
        assert len(lines) >= 2
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert float(lines[-1].split(",")[1]) <= 1e-6

    def test_dd_solve_reads_dd_tol(self, tmp_path, capsys):
        # The config's dd_tol is the CG tolerance unless --tol is given.
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("dd_tol = 1e-2\n")
        histories = []
        for head, tail in (([], []), (["--config", str(cfg)], []),
                           (["--config", str(cfg)], ["--tol", "1e-6"])):
            out = tmp_path / f"dd{len(histories)}.csv"
            rc = vcli.cli_main(head + ["dd-solve", "--body-level", "0",
                                       "--plate-level", "2",
                                       "--out", str(out)] + tail)
            assert rc == 0
            histories.append([float(line.split(",")[1])
                              for line in out.read_text().splitlines()[1:]])
        default, loose, explicit = histories
        assert loose[-1] <= 1e-2 < loose[-2]
        assert len(loose) < len(default)
        assert explicit == default
        assert default[-1] <= 1e-6

    def test_dd_solve_nonconvergence_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("dd_max_it = 1\n")
        rc = vcli.cli_main(["--config", str(cfg), "dd-solve", "--body-level",
                            "0", "--plate-level", "2"])
        assert rc == 1
        assert ("interface CG did not converge in 1 iterations"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("config, argv, name", [
        (None, ["solve", "--body-level", "-1", "--plate-level", "2"],
         "--body-level"),
        ("dd_tol = 0", ["dd-solve", "--body-level", "0", "--plate-level", "2"],
         "dd_tol"),
        (None, ["dd-solve", "--body-level", "0", "--plate-level", "2",
                "--tol", "0"], "--tol"),
        ("dd_max_it = -3",
         ["dd-solve", "--body-level", "0", "--plate-level", "2"], "dd_max_it"),
        ("nu_alpha = 0.7",
         ["solve", "--body-level", "0", "--plate-level", "2"], "nu_alpha"),
        ("t_beta = -1", ["solve", "--body-level", "0", "--plate-level", "2"],
         "t_beta"),
        ("quad_error = 99",
         ["solve", "--body-level", "0", "--plate-level", "2"], "quad_error"),
        ("e_alpha = inf", ["solve", "--body-level", "0", "--plate-level", "2"],
         "e_alpha"),
        ("t_beta = inf", ["solve", "--body-level", "0", "--plate-level", "2"],
         "t_beta"),
        ("dd_tol = inf",
         ["dd-solve", "--body-level", "0", "--plate-level", "2"], "dd_tol"),
        (None, ["dd-solve", "--body-level", "0", "--plate-level", "2",
                "--tol", "2"], "--tol"),
        # The quadrature degrees are fixed: their old keys are unknown.
        ("quad_volume = 4",
         ["solve", "--body-level", "0", "--plate-level", "2"], "quad_volume"),
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, config, argv,
                                      name):
        # Values no solve accepts stop before any solve, naming the key or
        # flag, with the usage exit code.
        head = []
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config + "\n")
            head = ["--config", str(path)]
        assert vcli.cli_main(head + argv) == 2
        assert name in capsys.readouterr().err

    def test_main_exits(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bodyplate"])
        with pytest.raises(SystemExit) as exc:
            vcli.main()
        assert exc.value.code == 2
