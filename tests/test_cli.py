"""Command-line orchestration: flag resolution, exit codes, report files,
determinism, and worker-count invariance."""
import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from heatsheet import ResourceError, cli, gaussfield, sde
from heatsheet.cli import (CHUNK_CELL_BUDGET, CHUNK_REPLICAS, COMMAND_FLAGS,
                           OPTIONS, TAGS, RunConfig, _mc_chunks, _mc_pairings,
                           build_config, main, make_parser,
                           suite_cov, suite_drift, suite_evolve, suite_ops,
                           suite_seed, suite_spde, write_report)
from heatsheet.gaussfield import MAX_SHEET_CELLS

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def run(argv):
    return main(argv)


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if '"timestamp"' not in ln)


class TestRunConfig:
    @pytest.mark.parametrize("kw,msg", [
        (dict(n=4095), "power of two"),
        (dict(n=1), "power of two"),
        (dict(seed=-1), "64 bits"),
        (dict(seed=1 << 64), "64 bits"),
        (dict(t_max=0.0), "tmax must be positive"),
        (dict(dz=0.0), "dz must be positive"),
        (dict(Z=-1.0), "Z must be positive"),
        (dict(replicas=1), "replicas must be at least 2"),
        (dict(workers=0), "workers"),
    ])
    def test_validate_rejects(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            RunConfig(**kw).validate()

    def test_defaults_are_valid(self):
        RunConfig().validate()

    def test_suite_seed(self):
        assert set(TAGS) == {"ops", "cov", "drift", "spde", "evolve"}
        assert len(set(TAGS.values())) == len(TAGS)
        assert suite_seed(RunConfig(seed=0), "ops") == TAGS["ops"]
        assert suite_seed(RunConfig(seed=TAGS["ops"]), "ops") == 0
        a = suite_seed(RunConfig(seed=5), "ops")
        b = suite_seed(RunConfig(seed=5), "cov")
        assert a != b


class TestConfigFile:
    """How the command line becomes a RunConfig: flags are the only way in."""

    def args(self, argv):
        return make_parser().parse_args(argv)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_bare_subcommand_is_run_config_defaults(self, command):
        # every default lives in RunConfig alone
        assert build_config(self.args([command])) == RunConfig()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_the_flags(self, command, capsys):
        # one flag per RunConfig field, and no other, each read by some
        # command: a field without one would be a knob that no run can set
        assert sorted(field for field, _ in OPTIONS.values()) == sorted(
            f.name for f in dataclasses.fields(RunConfig))
        assert set().union(*COMMAND_FLAGS.values()) == set(OPTIONS)
        with pytest.raises(SystemExit):
            self.args([command, "--help"])
        flags = set(re.findall(r"--\w+", capsys.readouterr().out))
        assert flags == {"--help"} | {f"--{key}"
                                      for key in COMMAND_FLAGS[command]}
        # the benchmark appends these to every call
        assert {"--seed", "--workers", "--out"} <= flags


class TestExitCodes:
    def test_bad_n_is_config_error(self, tmp_path, capsys):
        rc = run(["verify-ops", "--n", "4095", "--out", str(tmp_path)])
        assert rc == 2
        assert "power of two" in capsys.readouterr().err

    def test_spde_geometry_error(self, tmp_path, capsys):
        # bump support cannot fit inside (0, 2.5)
        rc = run(["verify-spde", "--tmax", "2.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "support" in capsys.readouterr().err

    def test_evolve_unstable_dz(self, tmp_path, capsys):
        rc = run(["evolve", "--dz", "1.0", "--out", str(tmp_path)])
        assert rc == 2
        assert "stability rule" in capsys.readouterr().err

    def test_evolve_short_z_takes_one_step(self, tmp_path):
        # Z below dz/2 = 0.05 still takes a step, of length Z, which the
        # report records as its dz
        rc = run(["evolve", "--Z", "0.001", "--replicas", "4", "--n", "256",
                  "--out", str(tmp_path)])
        assert rc in (0, 1)
        doc = json.loads((tmp_path / "evolve_report.json").read_text())
        assert {r["grid"]["dz"] for r in doc["reports"]} == {0.001}
        z = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                       skiprows=1)[:, 0]
        np.testing.assert_array_equal(z, [0.0, 0.001])

    @pytest.mark.parametrize("steps_flags,named", [
        (["--Z", "1e300", "--dz", "0.05"],
         "Z=1e+300 / dz=0.05 = 2e+301 steps"),
        (["--dz", "1e-300"], "Z=1 / dz=1e-300 = 1e+300 steps"),
        (["--Z", "1e300", "--dz", "1e-10"], "Z=1e+300 / dz=1e-10 = inf steps"),
    ])
    def test_evolve_records_over_budget(self, tmp_path, capsys, monkeypatch,
                                        steps_flags, named):
        # a step count whose records cannot be held, infinite included, is
        # a resource failure caught before the stationary basis is built
        def unreachable(*a, **k):
            raise AssertionError("basis built before the records check")

        monkeypatch.setattr(cli, "StationarySampler", unreachable)
        rc = run(["evolve", *steps_flags, "--replicas", "2", "--n", "64",
                  "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: the records of {named} of ")
        assert "exceeds budget" in err

    def test_evolve_weights_over_budget(self, tmp_path, capsys, monkeypatch):
        # 10 000 steps: the records of a block of 2 hold 0.13 M cells, but
        # the pairing weights 2 m steps n = 61.44 M, over the 60 M budget;
        # refused before the stationary basis is built
        def unreachable(*a, **k):
            raise AssertionError("basis built before the weights check")

        monkeypatch.setattr(cli, "StationarySampler", unreachable)
        rc = run(["evolve", "--Z", "500", "--replicas", "2",
                  "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the pairing weights of 3 observables "
                              "over Z=500 / dz=0.05 = 10000 steps of ")
        assert "exceeds budget" in err
        assert not any(tmp_path.iterdir())

    def test_evolve_basis_outnumbers_nodes(self, tmp_path, capsys):
        # 1280 basis bumps on 1024 nodes: a singular Gram, rejected before
        # the sampler factors anything
        rc = run(["evolve", "--tmax", "256", "--replicas", "4",
                  "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: tmax=256 needs 1280 stationary basis bumps, more than "
            "the n=1024 grid nodes")
        assert not any(tmp_path.iterdir())

    def test_evolve_basis_over_budget(self, tmp_path, capsys, monkeypatch):
        def unreachable(*a, **k):
            raise AssertionError("Gram built before the budget check")

        monkeypatch.setattr(gaussfield, "MAX_SHEET_CELLS", 80 * 256 - 1)
        monkeypatch.setattr(sde, "cov_u_gram", unreachable)
        rc = run(["evolve", "--replicas", "4", "--n", "256", "--Z", "0.25",
                  "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: the values of 80 stationary basis bumps of 20480 cells "
            "exceeds budget 20479\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("tmax", ["1", "1e300"])
    def test_ops_tmax_without_comparison_nodes(self, tmp_path, capsys,
                                               monkeypatch, tmax):
        # at tmax 1 no node lies in the interior (0.5, tmax - 0.5); at
        # 1e300 none lies in the eigenfunction window t <= 4.  Either is
        # rejected before any operator runs
        def unreachable(*a, **k):
            raise AssertionError("operator applied before the tmax check")

        monkeypatch.setattr(cli, "op_A2", unreachable)
        rc = run(["verify-ops", "--tmax", tmax, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"tmax must lie in (1.00024, 32768] at n=4096 for verify-ops, " \
            f"got {float(tmax):g}" in err

    @pytest.mark.parametrize("argv,msg", [
        (["verify-ops", "--tmax", "nan"], "tmax must be finite"),
        (["verify-cov", "--tmax", "inf"], "tmax must be finite"),
        (["evolve", "--dz", "nan"], "dz must be finite"),
        (["evolve", "--Z", "inf"], "Z must be finite"),
        (["verify-ops", "--n", "1"], "n must be a power of two, at least 2"),
    ])
    def test_non_finite_value(self, tmp_path, capsys, argv, msg):
        rc = run(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert msg in capsys.readouterr().err

    def test_resource_failure_is_not_a_verdict(self, tmp_path, capsys):
        rc = run(["verify-drift", "--tmax", "2000", "--replicas", "2",
                  "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds budget" in err

    @pytest.mark.parametrize("argv", [
        ["verify-cov", "--tmax", "2000"],
        ["verify-spde", "--n", "65536"],
        ["verify-spde", "--n", "32768"],
        ["verify-spde", "--n", "16384"],
    ])
    def test_budget_checked_before_weights(self, tmp_path, capsys,
                                           monkeypatch, argv):
        # an oversized sheet must fail before any weight array is built
        def unreachable(*a, **k):
            raise AssertionError("weights built before the budget check")

        monkeypatch.setattr(cli, "point_weights", unreachable)
        monkeypatch.setattr(cli, "pair_u_weights", unreachable)
        monkeypatch.setattr(gaussfield, "_bracket", unreachable)
        rc = run(argv + ["--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds budget" in err

    def test_memory_error_is_not_a_verdict(self, tmp_path, capsys,
                                           monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "suite_cov", exhausted)
        rc = run(["verify-cov", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_mc_engine_checks_cell_budget(self):
        # the check precedes any allocation, so a one-cell W suffices
        with pytest.raises(ResourceError, match="exceeds budget"):
            _mc_pairings(np.ones((1, 1)), MAX_SHEET_CELLS + 1, 1.0, 2,
                         seed=0, stream_base=0, workers=1)

    def test_mc_chunk_stays_under_buffer_cap(self):
        # a chunk buffer holds at most CHUNK_CELL_BUDGET cells when one
        # sheet fits under the budget, and exactly one sheet otherwise
        for ncells in (1, 688_128, CHUNK_CELL_BUDGET // 2 + 1,
                       CHUNK_CELL_BUDGET, CHUNK_CELL_BUDGET + 1, 30_000_000,
                       MAX_SHEET_CELLS):
            for lo, hi in _mc_chunks(300, ncells):
                if ncells <= CHUNK_CELL_BUDGET:
                    assert (hi - lo) * ncells <= CHUNK_CELL_BUDGET
                else:
                    assert hi - lo == 1

    def test_drift_tmax_short_of_the_variance_target(self, tmp_path, capsys):
        # the sheet would end at s = 1/64, missing 97 % of the variance
        # target: a domain error, not a statistical FAIL
        rc = run(["verify-drift", "--tmax", "0.01", "--replicas", "200",
                  "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tmax=0.01 is too short for verify-drift")
        assert "s >= ln(1/0.001) / (2 nu) = 3.454" in err

    @pytest.mark.parametrize("command", ["verify-ops", "verify-cov",
                                         "verify-drift", "verify-spde"])
    @pytest.mark.parametrize("flag", ["--dz", "--Z"])
    def test_evolve_flags_rejected_elsewhere(self, tmp_path, capsys,
                                             command, flag):
        rc = run([command, flag, "5", "--out", str(tmp_path)])
        assert rc == 2
        reads = " ".join(f"--{key}" for key in COMMAND_FLAGS[command])
        assert (capsys.readouterr().err == f"error: {flag} does not apply to "
                f"{command}, which reads {reads}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,given,flag", [
        ("verify-ops", ["--replicas", "64"], "--replicas"),
        ("verify-drift", ["--n", "64"], "--n"),
        ("evolve", ["--nus=1"], "--nus")])
    def test_unread_flags_rejected(self, tmp_path, capsys, command, given,
                                   flag):
        # a flag the suite never reads would be echoed into the report's
        # config while changing nothing; an unknown one is named the same way
        rc = run([command, *given, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flag} does not apply to {command}, which reads ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["2", "4"])
    def test_ops_n_below_minimum(self, tmp_path, capsys, n):
        # no node of the ops bump has a nonzero derivative, so the
        # composition error, scaled by max |h'|, would be inf or nan
        rc = run(["verify-ops", "--n", n, "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: n must be at least 8 for verify-ops, got {n}" \
            in out.err
        assert not list(tmp_path.iterdir())

    def test_ops_smallest_n_gives_finite_verdicts(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(["verify-ops", "--n", "8", "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "ops_report.json").read_text())
        assert all(math.isfinite(r["estimate"]) for r in doc["reports"])

    @pytest.mark.parametrize("flags,n_min", [
        (["--n", "8"], 32), (["--n", "16"], 32),
        (["--tmax", "12", "--n", "32"], 64)])
    def test_cov_dt_above_half_the_observables_radius(
            self, tmp_path, capsys, monkeypatch, flags, n_min):
        # at dt = 1 or 0.5 the Gram targets sample the radius-0.7
        # observables so coarsely that their discretisation gap alone
        # fails the Gram gates: a resolution fault, rejected before any
        # weights are built, not a statistical FAIL
        def unreachable(*a, **k):
            raise AssertionError("weights built before the grid check")

        monkeypatch.setattr(cli, "point_weights", unreachable)
        rc = run(["verify-cov", *flags, "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        tmax, n = (flags[1], flags[3]) if len(flags) == 4 else ("8", flags[1])
        assert out.err == (
            f"error: n must be at least {n_min} for verify-cov at tmax={tmax},"
            f" where dt = tmax/n may not exceed 0.35, half the observables' "
            f"radius; got {n}\n")
        assert not list(tmp_path.iterdir())

    def test_cov_smallest_n_runs(self, tmp_path):
        rc = run(["verify-cov", "--n", "32", "--replicas", "16",
                  "--out", str(tmp_path)])
        assert rc in (0, 1)
        doc = json.loads((tmp_path / "cov_report.json").read_text())
        assert len(doc["reports"]) == 4

    @pytest.mark.parametrize("command,suite", [
        ("verify-ops", "suite_ops"), ("verify-cov", "suite_cov"),
        ("verify-drift", "suite_drift"), ("verify-spde", "suite_spde"),
        ("evolve", "suite_evolve")])
    def test_bad_out_fails_before_the_suite(self, tmp_path, capsys,
                                            monkeypatch, command, suite):
        # an --out that cannot be made (here under a regular file) is a
        # file error reported before any computation, not after the suite
        def unreachable(cfg):
            raise AssertionError(f"{suite} ran before --out was made")

        monkeypatch.setattr(cli, suite, unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = run([command, "--out", str(blocker / "sub")])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_degraded_resolution_fails_honestly(self, tmp_path, capsys):
        # at n = 512 the identity-suite refinement targets are unattainable
        rc = run(["verify-ops", "--n", "512", "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class _Stop(Exception):
    pass


class TestDefaultLattices:
    # (y_min, dy, ds, ny, ns) of each suite's sheet at the default config
    COV = [(-8.662058069535208, 0.04419417382415922, 1 / 512, 392, 512),
           (-24.5, 1 / 8, 1 / 64, 392, 512)]
    DRIFT = [(-24.5, 1 / 8, 1 / 64, 411, 512)]
    SPDE = [(-10.5, 1 / 32, 1 / 128, 672, 1024),
            (-9.0, 0.0125, 1 / 128, 1440, 1024)]

    @staticmethod
    def lattices(monkeypatch, suite, builder, stop_at, pick=lambda out: out):
        # record what the suite builds, then stop it at its first weight
        # build or plan, before any Monte Carlo
        built = []
        orig = getattr(cli, builder)

        def record(*a, **k):
            out = orig(*a, **k)
            built.append(dataclasses.astuple(pick(out)))
            return out

        def stop(*a, **k):
            raise _Stop

        monkeypatch.setattr(cli, builder, record)
        monkeypatch.setattr(cli, stop_at, stop)
        with pytest.raises(_Stop):
            suite(RunConfig())
        return built

    def test_cov(self, monkeypatch):
        assert self.lattices(monkeypatch, suite_cov, "_sheet_band",
                             "point_weights") == self.COV

    def test_drift(self, monkeypatch):
        assert self.lattices(monkeypatch, suite_drift, "_sheet_band",
                             "sheet_sample") == self.DRIFT

    def test_spde(self, monkeypatch):
        assert self.lattices(monkeypatch, suite_spde, "weakform_geometry",
                             "WeakformPlan", pick=lambda out: out[2]) \
            == self.SPDE


def db4_matrix(shape) -> np.ndarray:
    """The matrix of cli._db4 on a shape lattice: column j is the image of
    unit cell j."""
    n = shape[0] * shape[1]
    return np.stack([cli._db4(e.reshape(shape).copy()).ravel()
                     for e in np.eye(n)], axis=1)


def db4_unblocked(w: np.ndarray) -> np.ndarray:
    """The reference Daubechies-4 transform: each level filters every line
    of the axis in one pass, on a wrapped copy of the whole array."""
    for v in (w, w.T):
        n = v.shape[0]
        while n % 2 == 0:
            ext = v[np.arange(n + 6) % n]
            win = np.lib.stride_tricks.sliding_window_view(ext, 8, axis=0)
            out = cli.DB4_HG @ np.moveaxis(win[::2], -1, 1)
            v[:n // 2], v[n // 2:n] = out[:, 0], out[:, 1]
            n //= 2
    return w


def fold_matrix(lat) -> np.ndarray:
    """The matrix of the crop's folded basis on a lattice of even ny: column
    j holds the coefficients of unit cell j, whose even and odd parts about
    the centre line are cropped as half-lattice rows of parity +1 and -1,
    each transformed in place on its own half."""
    m = lat.ny // 2
    cols = []
    for e in np.eye(lat.cells):
        e = e.reshape(lat.ny, lat.ns)
        up, down = e[m:], e[m - 1::-1]
        W = np.stack([(up + down) / 2.0, (up - down) / 2.0])
        cli._support(W, lat, parities=(1, -1))
        cols.append(W.ravel())
    return np.stack(cols, axis=1)


def reflect_matrix(lat) -> np.ndarray:
    """The matrix of the crop's reflected-order basis on a lattice."""
    cols = []
    for e in np.eye(lat.cells):
        W = e.reshape(1, lat.ny, lat.ns).copy()
        cli._support(W, lat, reflect=True)
        cols.append(W.ravel())
    return np.stack(cols, axis=1)


def symmetric_lattice(ny, ns) -> gaussfield.SheetLattice:
    return gaussfield.SheetLattice(-ny / 16.0, 0.125, 1.0 / 64, ny, ns)


class TestMcEngine:
    @pytest.mark.parametrize("R,ncells", [
        (300, 672 * 1024), (300, 1440 * 1024), (1000, 392 * 512),
        (5, 1), (128, 1), (129, 1), (300, 30_000_000)])
    def test_chunks_of_equal_size(self, R, ncells):
        # ceil(R / cap) chunks, in order, whose sizes differ by at most 1
        cap = max(1, min(CHUNK_REPLICAS, CHUNK_CELL_BUDGET // ncells))
        chunks = _mc_chunks(R, ncells)
        assert len(chunks) == -(-R // cap)
        assert chunks[0][0] == 0 and chunks[-1][1] == R
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap

    def test_replicas_drawn_in_place(self):
        # every replica is drawn straight into its row of the chunk buffer:
        # the engine holds W in float32 and one buffer of R sheets, and no
        # per-replica sheet besides
        ncells, R = 1 << 18, 4
        assert _mc_chunks(R, ncells) == [(0, R)]
        W = np.ones((1, ncells))
        tracemalloc.start()
        try:
            X = _mc_pairings(W, ncells, 1.0, R, seed=0, stream_base=0,
                             workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (R, 1)
        sheet = 4 * ncells
        assert peak < (1 + R) * sheet + sheet // 2

    @pytest.mark.parametrize("shape", [(1, 1), (7, 16), (12, 40), (6, 5)])
    def test_db4_is_orthonormal(self, shape):
        # odd, power-of-two and mixed axis lengths, some shorter than the
        # filters: the Daubechies-4 transform's matrix is orthogonal, so it
        # keeps inner products, and each axis is halved only while even,
        # leaving its odd part as coarse sums, unpadded: a constant array
        # keeps only those, each sqrt 2 per level, and its details are
        # roundoff
        n = shape[0] * shape[1]
        D = db4_matrix(shape)
        np.testing.assert_allclose(D @ D.T, np.eye(n), rtol=0.0, atol=1e-12)
        u, v = np.random.default_rng(1).standard_normal((2, *shape))
        assert np.vdot(cli._db4(u.copy()), cli._db4(v.copy())) == \
            pytest.approx(np.vdot(u, v), rel=1e-12, abs=1e-12)
        odd = [m >> ((m & -m).bit_length() - 1) for m in shape]
        c = cli._db4(np.ones(shape))
        coarse = np.zeros(shape, dtype=bool)
        coarse[:odd[0], :odd[1]] = True
        np.testing.assert_allclose(c[coarse], math.sqrt(n / (odd[0] * odd[1])),
                                   rtol=1e-12)
        assert np.all(np.abs(c[~coarse]) <= 1e-12)

    @pytest.mark.parametrize("n", [392, 411, 512, 672, 1024, 1440])
    def test_db4_is_orthonormal_at_suite_lengths(self, n):
        # every axis length of the default sheets (TestDefaultLattices): the
        # 1-D transform is orthogonal, and the same matrix along y and s
        D = db4_matrix((n, 1))
        np.testing.assert_allclose(D @ D.T, np.eye(n), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(db4_matrix((1, n)), D)

    def test_energy_crop(self, monkeypatch):
        # a wide row and a narrow, far weaker one whose sign alternates
        # along y, so its energy sits in the finest y details, both zero
        # beyond the tenth s-column: the crop overwrites W by its
        # coefficients, each row loses at most tol of its own energy, counted
        # on its own Daubechies-4 coefficients, no zero coefficient is
        # drawn, and the narrow row's largest coefficient, which the wide row
        # alone would drop, is kept
        lat = gaussfield.SheetLattice(-8.0, 0.125, 1.0 / 64, 128, 16)
        y = lat.y_nodes[:, None]
        s = lat.s_nodes[None, :]
        sign = (-1.0) ** np.arange(lat.ny)[:, None]
        W = np.stack([np.exp(-y ** 2 / 2.0 - s),
                      1e-4 * sign * np.exp(-(y - 4.0) ** 2 / 0.1 - s)])
        W[:, :, 10:] = 0.0
        tol = 1e-6
        monkeypatch.setattr(cli, "TAIL_TOL", tol)
        Wc = W.copy()
        crop = cli._support(Wc, lat)
        C = np.stack([cli._db4(w.copy()).ravel() for w in W])
        np.testing.assert_array_equal(Wc.reshape(2, -1), C)
        np.testing.assert_array_equal(crop.W, C[:, crop.keep])
        nonzero = np.any(C != 0.0, axis=0)
        assert crop.cells == int(crop.keep.sum()) < int(nonzero.sum())
        for c in C:
            assert np.sum(c[~crop.keep] ** 2) <= tol * np.sum(c ** 2)
        assert crop.dropped <= tol
        assert not crop.keep[~nonzero].any()
        peak = int(np.argmax(C[1] ** 2))
        assert crop.keep[peak]
        assert not cli._support(W[:1].copy(), lat).keep[peak]

    def test_energy_crop_cuts_ties_together(self, monkeypatch):
        # equal energies are kept or dropped as a group: a row flat in y and
        # alternating in s has four equal Daubechies-4 details, bit for bit,
        # and roundoff elsewhere; all four are drawn even when half its
        # energy may go
        lat = gaussfield.SheetLattice(0.0, 1.0, 1.0, 4, 8)
        w = np.tile((-1.0) ** np.arange(8), (4, 1))
        c = cli._db4(w.copy())
        big = np.abs(c) > 1e-12
        assert np.count_nonzero(big) == 4 and np.unique(c[big]).size == 1
        monkeypatch.setattr(cli, "TAIL_TOL", 0.5)
        crop = cli._support(w[None], lat)
        assert crop.cells == 4 and crop.keep[big.ravel()].all()
        assert crop.dropped <= 1e-30

    def test_cropped_replicas_draw_kept_cells(self, monkeypatch):
        # W is zero outside rows 10..49 and columns 0..9 (s >= t = 0.15):
        # replica r pairs the kept Daubechies-4 coefficients of W with the
        # first crop.cells float32 normals of stream stream_base + r, which
        # is the full W against the cell sheet whose coefficients hold those
        # normals in the kept places and fresh ones elsewhere, up to the
        # energy the crop dropped; the kernel's singular last columns keep
        # more coefficients than the 400 cells of that box, but under half
        # the lattice
        lat = gaussfield.SheetLattice(-4.0, 0.125, 1.0 / 64, 64, 16)
        W = np.stack([gaussfield.point_weights(lat.y_nodes, lat.s_nodes,
                                               x, 0.15) for x in (0.0, 0.5)])
        W[:, :10] = 0.0
        W[:, 50:] = 0.0
        tol = 1e-6
        monkeypatch.setattr(cli, "TAIL_TOL", tol)
        crop = cli._support(W.copy(), lat)  # the crop consumes its input
        assert crop.cells < lat.cells // 2 and type(crop.cells) is int
        assert crop.scale == lat.scale
        Wf = W.reshape(2, -1)
        norms = np.linalg.norm(Wf, axis=1)
        D = db4_matrix((lat.ny, lat.ns))
        R, base = 5, 17
        X = _mc_pairings(crop.W, crop.cells, crop.scale, R, seed=123,
                         stream_base=base, workers=2)
        fill = np.random.default_rng(0)
        for r in range(R):
            z = gaussfield.sheet_rng(123, base + r).standard_normal(
                crop.cells, dtype=np.float32)
            # float32 rounding, relative to |w| |z| as the sums cancel
            eps = 1e-5 * lat.scale * norms * np.linalg.norm(z)
            kept = lat.scale * (crop.W @ z)
            assert np.all(np.abs(X[r] - kept) <= eps)
            coef = fill.standard_normal(lat.cells)
            coef[crop.keep] = z
            sheet = D.T @ coef  # the inverse transform
            # Cauchy-Schwarz on the dropped coefficients
            rest = lat.scale * norms * math.sqrt(tol) * np.linalg.norm(
                coef[~crop.keep])
            assert np.all(np.abs(X[r] - lat.scale * (Wf @ sheet))
                          <= rest + eps)

    @pytest.mark.parametrize("shape", [(392, 512), (1440, 64), (7, 16)])
    def test_db4_blocks_change_no_bit(self, shape):
        # every level runs over blocks of lines, the suites' lattices over
        # several: the result is the one-pass transform's, bit for bit
        w = np.random.default_rng(2).standard_normal(shape)
        assert np.array_equal(cli._db4(w.copy()), db4_unblocked(w.copy()))

    @pytest.mark.parametrize("shape", [(2, 1), (6, 5), (12, 40), (16, 16)])
    def test_folded_basis_is_orthonormal(self, shape):
        # half lengths odd, even and a power of two; the sums and the
        # differences of mirrored cells over sqrt 2, each half then
        # transformed by _db4: an orthogonal matrix on the full lattice
        lat = symmetric_lattice(*shape)
        D = fold_matrix(lat)
        np.testing.assert_allclose(D @ D.T, np.eye(lat.cells), rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 16), (12, 40), (6, 5)])
    def test_reflected_basis_is_orthonormal(self, shape):
        # the s axis out and back (even cells ascending, odd descending),
        # then _db4: a permutation before an orthogonal matrix
        lat = symmetric_lattice(*shape)
        D = reflect_matrix(lat)
        np.testing.assert_allclose(D @ D.T, np.eye(lat.cells), rtol=0.0,
                                   atol=1e-12)
        # unit cell (y, s) moves to (y, p), where order[p] = s
        ns = shape[1]
        order = [*range(0, ns, 2), *range(ns - 1 - ns % 2, 0, -2)]
        assert sorted(order) == list(range(ns))
        cells = np.arange(lat.cells).reshape(shape)
        np.testing.assert_array_equal(
            D, db4_matrix(shape)[:, cells[:, np.argsort(order)].ravel()])

    def test_even_and_odd_rows_crop_onto_disjoint_halves(self, monkeypatch):
        # an even row lives on the sum half, as sqrt 2 times the transform
        # of its half-lattice weights, and an odd row on the difference
        # half: they share no coefficient, so their drawn covariance is 0
        # bit for bit, and each row drops at most tol of its energy
        lat = symmetric_lattice(128, 32)
        y = lat.y_nodes[lat.ny // 2:, None]
        s = lat.s_nodes[None, :]
        W = np.stack([np.exp(-y ** 2 - s), y * np.exp(-y ** 2 - 2.0 * s),
                      np.exp(-(y - 2.0) ** 2 - s / 2.0)])
        tol = 1e-6
        monkeypatch.setattr(cli, "TAIL_TOL", tol)
        Wc = W.copy()
        crop = cli._support(Wc, lat, parities=(1, -1, 1))
        for w, c in zip(W, Wc):
            np.testing.assert_allclose(
                c, cli._db4(math.sqrt(2.0) * w), rtol=0.0,
                atol=1e-14 * np.max(np.abs(c)))
        keep = crop.keep.reshape(2, -1)
        n_sum = int(keep[0].sum())
        assert crop.cells == n_sum + int(keep[1].sum())
        assert 0 < n_sum < crop.cells
        assert not crop.W[[0, 2], n_sum:].any()
        assert not crop.W[1, :n_sum].any()
        G = crop.gram()
        assert G[0, 1] == G[1, 0] == G[1, 2] == 0.0 and G[0, 2] != 0.0
        for c, half in zip(Wc.reshape(3, -1), (0, 1, 0)):
            assert np.sum(c[~keep[half]] ** 2) <= tol * np.sum(c ** 2)
        assert crop.dropped <= tol
        np.testing.assert_array_equal(crop.W[0, :n_sum], Wc[0].ravel()[keep[0]])

    def test_parities_must_fit_the_lattice(self):
        lat = symmetric_lattice(16, 8)
        with pytest.raises(ValueError, match="parities"):
            cli._support(np.ones((2, 8, 8)), lat, parities=(1,))
        with pytest.raises(ValueError, match="parities"):
            cli._support(np.ones((1, 16, 8)), lat, parities=(1,))
        with pytest.raises(ValueError, match="parities"):
            cli._support(np.ones((1, 7, 8)), symmetric_lattice(15, 8),
                         parities=(1,))

    def test_reflected_order_crops_a_row_large_at_s_zero(self):
        # smooth in s, largest at s = 0 and vanishing at s_max, as a
        # weak-form row is: the periodized transform sees a jump across the
        # wrap in natural order, none out and back
        lat = symmetric_lattice(64, 256)
        w = (np.exp(-lat.y_nodes[:, None] ** 2)
             * np.cos(0.5 * np.pi * lat.s_nodes[None, :] / lat.s_max) ** 2)
        natural = cli._support(w[None].copy(), lat)
        reflected = cli._support(w[None].copy(), lat, reflect=True)
        assert reflected.cells < 0.6 * natural.cells
        assert reflected.dropped <= cli.TAIL_TOL

    @pytest.mark.parametrize("how", [{}, {"reflect": True},
                                     {"parities": (1,)}])
    def test_crop_holds_one_row_sized_buffer(self, how):
        # besides the row it overwrites and its kept coefficients, cropping
        # a row holds one row-sized buffer (its sorted energies), the keep
        # mask and blocks of PAIR_BLOCK_ENTRIES entries
        ny, ns = 1024, 1024
        lat = symmetric_lattice(ny, ns)
        rows = ny // 2 if "parities" in how else ny
        y = lat.y_nodes[ny - rows:, None]
        W = np.exp(-y ** 2 / 8.0 - lat.s_nodes[None, :])[None]
        row = W.nbytes
        tracemalloc.start()
        try:
            crop = cli._support(W, lat, **how)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert crop.W.nbytes < row // 64
        blocks = 8 * 8 * gaussfield.PAIR_BLOCK_ENTRIES
        assert peak < row + lat.cells + crop.W.nbytes + blocks

    def test_cov_builds_each_pairing_table_once(self, monkeypatch):
        # one call per pairing builder, with all eight observables
        seen = {"pair_u_weights": [], "pair_v_weights": []}
        for name in seen:
            def record(yn, sn, x, hs, *a, _name=name,
                       _orig=getattr(cli, name), **k):
                seen[_name].append(len(hs))
                return _orig(yn, sn, x, hs, *a, **k)
            monkeypatch.setattr(cli, name, record)
        suite_cov(RunConfig(replicas=16))
        assert seen == {"pair_u_weights": [8], "pair_v_weights": [8]}


class TestDriftProbeWeights:
    SMALL = dict(t_max=4.0, replicas=16)

    def test_each_weight_array_built_once(self, monkeypatch):
        # one field build per quadrature order and one integral build serve
        # all probes and the variance Monte Carlo
        calls = {"drift_field_weights": 0, "drift_integral_weights": 0}
        for name in calls:
            def count(*a, _name=name, _orig=getattr(cli, name), **k):
                calls[_name] += 1
                return _orig(*a, **k)
            monkeypatch.setattr(cli, name, count)
        suite_drift(RunConfig(**self.SMALL))
        assert calls == {"drift_field_weights": 2,
                         "drift_integral_weights": 1}

    def test_slices_equal_per_probe_builds(self):
        # probes two cells apart, one below the first: shifts are read off
        # the lattice, not the default probe step
        lat = gaussfield.SheetLattice(-4.0, 0.25, 0.5, 40, 8)
        yvals = np.array([0.0, 0.5, 1.5, -0.5])

        def build(yn, sn, y):
            return gaussfield.drift_field_weights(yn, sn, y, 1.0, 4.0, nw=8)
        got = cli._probe_weights(lat, yvals, build)
        for y, w in zip(yvals, got):
            np.testing.assert_array_equal(
                w, build(lat.y_nodes, lat.s_nodes, float(y)))

    def test_probe_off_the_cell_lattice(self, monkeypatch):
        monkeypatch.setattr(cli, "DRIFT_Y_STEP", cli.COV_GRAM_DY / 2)
        with pytest.raises(ValueError, match="not whole cells"):
            suite_drift(RunConfig(**self.SMALL))


@pytest.fixture(scope="module")
def ops_runs(tmp_path_factory):
    outs = []
    for tag in ("a", "b"):
        d = tmp_path_factory.mktemp(f"ops_{tag}")
        rc = main(["verify-ops", "--out", str(d)])
        outs.append((rc, d / "ops_report.json"))
    return outs


class TestReports:
    def test_ops_passes_at_defaults(self, ops_runs, capsys):
        assert ops_runs[0][0] == 0

    def test_report_schema(self, ops_runs):
        doc = json.loads(ops_runs[0][1].read_text())
        assert doc["suite"] == "ops"
        assert set(doc) == {"suite", "timestamp", "config", "reports"}
        assert doc["config"]["seed"] == 0
        assert doc["reports"]
        for rep in doc["reports"]:
            assert {"statistic", "estimate", "target", "rule",
                    "pass", "seed"} <= set(rep)
            assert "passed" not in rep
            assert rep["pass"] is True

    def test_byte_identical_reruns(self, ops_runs):
        a = strip_timestamp(ops_runs[0][1].read_text())
        b = strip_timestamp(ops_runs[1][1].read_text())
        assert a == b

    def test_report_config_echoes_run_config(self, ops_runs):
        doc = json.loads(ops_runs[0][1].read_text())
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(doc["config"]) == fields - {"out_dir"}

    def test_write_report_roundtrip(self, tmp_path):
        from heatsheet.stats import residual_report
        rep = residual_report("example residual", 0.5, 1.0)
        path = tmp_path / "r.json"
        write_report(str(path), "ops", RunConfig(), [rep])
        doc = json.loads(path.read_text())
        assert doc["reports"][0]["pass"] is True
        assert doc["reports"][0]["statistic"] == "example residual"


# reduced sizes; more than CHUNK_REPLICAS replicas, so that two workers
# really split the Monte Carlo and evolve loops
INVARIANCE_REPLICAS = CHUNK_REPLICAS + 32
SUITE_RUNS = {
    "ops": (suite_ops, {}),
    "cov": (suite_cov, dict(replicas=INVARIANCE_REPLICAS)),
    "drift": (suite_drift, dict(t_max=4.0, replicas=INVARIANCE_REPLICAS)),
    "spde": (suite_spde, dict(replicas=INVARIANCE_REPLICAS, n=128)),
    "evolve": (suite_evolve, dict(replicas=INVARIANCE_REPLICAS, n=256,
                                  Z=0.25)),
}


class TestWorkerInvariance:
    @pytest.mark.parametrize("suite", list(SUITE_RUNS))
    def test_suite_reports_identical(self, suite):
        fn, kw = SUITE_RUNS[suite]

        def reports(workers):
            out = fn(RunConfig(workers=workers, **kw))
            out = out[0] if suite == "evolve" else out
            return [r.to_dict() for r in out]

        # verdicts and numbers must not depend on the worker count
        first = reports(1)
        assert reports(2) == first
        assert reports(3) == first


# each command at a reduced size; only the recorded seeds and the rerun
# bytes are checked.  The Monte Carlo commands, evolve among them, take one
# replica more than an engine chunk holds, so --workers 2 shares out two
# ranges.
MC_SPLIT = str(CHUNK_REPLICAS + 1)
SEED_RUNS = {
    "ops": ["verify-ops"],
    "cov": ["verify-cov", "--replicas", MC_SPLIT],
    "drift": ["verify-drift", "--tmax", "4", "--replicas", MC_SPLIT],
    "spde": ["verify-spde", "--n", "64", "--replicas", MC_SPLIT],
    "evolve": ["evolve", "--tmax", "8", "--n", "256", "--replicas",
               MC_SPLIT, "--Z", "0.2"],
}


@pytest.fixture(scope="module", params=list(SEED_RUNS))
def seed_runs(request, tmp_path_factory):
    """(suite, report texts, range counts) of one SEED_RUNS command at seed
    5, run at --workers 1 and again at --workers 2; the range counts are
    those of every cli._parallel call of the two runs."""
    suite = request.param
    texts = []
    splits = []

    def counted(ranges, workers, task):
        splits.append(len(ranges))
        return parallel(ranges, workers, task)

    parallel = cli._parallel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parallel", counted)
        for workers in ("1", "2"):
            out = tmp_path_factory.mktemp(f"{suite}_w{workers}")
            rc = run([*SEED_RUNS[suite], "--seed", "5", "--workers", workers,
                      "--out", str(out)])
            assert rc in (0, 1)
            texts.append((out / f"{suite}_report.json").read_text())
    return suite, texts, splits


class TestReportSeeds:
    def test_every_report_records_the_suite_seed(self, seed_runs):
        suite, texts, _ = seed_runs
        doc = json.loads(texts[0])
        assert doc["config"]["seed"] == 5
        assert doc["reports"]
        want = suite_seed(RunConfig(seed=5), suite)
        assert [r["seed"] for r in doc["reports"]] \
            == [want] * len(doc["reports"])

    def test_reruns_are_byte_identical(self, seed_runs):
        # a rerun at another worker count changes only the two lines that
        # record when and how it ran: the top-level timestamp and the
        # config's workers
        _, texts, _ = seed_runs
        a, b = ([ln for ln in t.splitlines(keepends=True)
                 if not ln.startswith(('  "timestamp": ', '    "workers": '))]
                for t in texts)
        assert a == b

    def test_second_worker_gets_work(self, seed_runs):
        # every Monte Carlo range list splits in two, so the rerun above
        # shares each one out; verify-ops draws nothing and splits nothing
        suite, _, splits = seed_runs
        if suite == "ops":
            assert splits == []
        else:
            assert splits and min(splits) >= 2


class TestEvolveArtifacts:
    def test_files_written(self, tmp_path):
        rc = run(["evolve", "--tmax", "8", "--n", "256", "--replicas", "100",
                  "--Z", "0.2", "--out", str(tmp_path)])
        assert rc == 0
        traj = (tmp_path / "trajectory.csv").read_text()
        header = traj.splitlines()[0].split(",")
        assert header[0] == "z"
        assert any(c.startswith("u_h") for c in header)
        state = np.load(tmp_path / "final_state.npy", allow_pickle=False)
        assert state.dtype == np.float64 and state.shape == (2, 256)
        assert np.all(np.isfinite(state))
        assert not (tmp_path / "final_state.bin").exists()
        doc = json.loads((tmp_path / "evolve_report.json").read_text())
        assert doc["suite"] == "evolve"
        assert all(r["pass"] for r in doc["reports"])

    def test_files_identical_across_workers(self, tmp_path):
        # the sample replica's files, written from the first block, must
        # not depend on how the blocks are shared out
        files = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            rc = run(["evolve", "--tmax", "8", "--n", "256", "--replicas",
                      "100", "--Z", "0.2", "--workers", workers,
                      "--out", str(out)])
            assert rc == 0
            files.append([(out / name).read_bytes()
                          for name in ("trajectory.csv", "final_state.npy")])
        assert files[0] == files[1]


if __name__ == "__main__":
    pytest.main([__file__])
