import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegeljacobi.cli import _build_parser, main
from siegeljacobi.group_core import JacobiPoint, SiegelPoint, act_jacobi, act_siegel
from siegeljacobi.jacobi_domain import in_F_gh
from siegeljacobi.jsonio import (decode_jacobi_element, decode_jacobi_point,
                                 decode_matrix, decode_siegel_point,
                                 decode_symplectic, encode_complex,
                                 encode_jacobi_element, encode_jacobi_point,
                                 encode_matrix, encode_siegel_point)
from siegeljacobi.minkowski import is_minkowski_reduced
from siegeljacobi.siegel import CandidateSet, builtin_candidates, siegel_membership
from conftest import (DEFINITENESS_LOSS_Y, SKEWED_YS, STALL_OMEGA, STEP_DEFINITENESS_LOSS,
                      is_plus_minus_identity, rand_jacobi_element, rand_jacobi_point,
                      rand_siegel_point, sl2z_reduce_oracle, boundary_equivalent,
                      write_candidates)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestJsonCodecs:
    def test_matrix_round_trip(self, rng):
        m = rng.normal(size=(2, 3))
        assert np.allclose(decode_matrix(encode_matrix(m)), m)

    def test_matrix_errors_name_field(self):
        with pytest.raises(ValueError, match="Y.rows missing"):
            decode_matrix({"cols": 1, "data": [1]}, "Y")
        with pytest.raises(ValueError, match="Y.data"):
            decode_matrix({"rows": 2, "cols": 2, "data": [1]}, "Y")

    def test_point_round_trips(self, rng):
        p = rand_siegel_point(2, rng)
        q = decode_siegel_point(encode_siegel_point(p))
        assert np.allclose(q.omega, p.omega)
        jp = rand_jacobi_point(2, 2, rng)
        jq = decode_jacobi_point(encode_jacobi_point(jp))
        assert np.allclose(jq.Z, jp.Z) and np.allclose(jq.omega.omega, jp.omega.omega)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_names_field(self, bad):
        obj = json.loads('{"rows": 1, "cols": 2, "data": [1, %s]}' % bad)
        with pytest.raises(ValueError, match="Y.data holds a non-finite entry"):
            decode_matrix(obj, "Y")

    def test_non_number_entry_names_field(self):
        with pytest.raises(ValueError, match="Y.data holds a non-number"):
            decode_matrix({"rows": 1, "cols": 2, "data": [1, {"a": 1}]}, "Y")

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("bad", [1.7, True, "2", -1, 1.0, None])
    def test_shape_field_must_be_an_integer(self, key, bad):
        # int(1.7) and int(True) used to read these as 1
        obj = {"rows": 1, "cols": 1, "data": [1]}
        obj[key] = bad
        with pytest.raises(ValueError, match=r"Y\.%s: expected an integer >= 0" % key):
            decode_matrix(obj, "Y")

    @pytest.mark.parametrize("data", [5, "ab", {"a": 1}])
    def test_data_must_be_a_list(self, data):
        with pytest.raises(ValueError, match="Y.data: expected a list of 2 entries"):
            decode_matrix({"rows": 1, "cols": 2, "data": data}, "Y")

    def test_group_element_round_trip(self, rng):
        x = rand_jacobi_element(2, 2, rng)
        y = decode_jacobi_element(encode_jacobi_element(x))
        assert x == y


class TestReduceCommand:
    def test_siegel_matches_classical_oracle(self, tmp_path, capsys):
        tau = 0.3 + 0.05j
        path = write_json(tmp_path / "p.json",
                          {"omega": encode_complex(np.array([[tau]]))})
        code, out, _ = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 0
        rep = json.loads(out)
        got = decode_matrix(rep["outputs"]["reduced"]["omega"]["re"]) \
            + 1j * decode_matrix(rep["outputs"]["reduced"]["omega"]["im"])
        assert boundary_equivalent(complex(got[0, 0]), sl2z_reduce_oracle(tau))

    def test_jacobi_identity_certificate(self, tmp_path, capsys, rng):
        from conftest import rand_interior_jacobi
        p = rand_interior_jacobi(1, 1, rng)
        path = write_json(tmp_path / "p.json", encode_jacobi_point(p))
        code, out, _ = run_cli(capsys, ["reduce", "--jacobi", "--point", path])
        assert code == 0
        rep = json.loads(out)
        gj = decode_jacobi_element(rep["outputs"]["gammaJ"])
        assert is_plus_minus_identity(gj.m)
        assert np.all(gj.heis.lam == 0) and np.all(gj.heis.mu == 0)

    def test_minkowski(self, tmp_path, capsys):
        path = write_json(tmp_path / "y.json",
                          {"Y": encode_matrix(np.array([[1.0, 0.6], [0.6, 1.0]]))})
        code, out, _ = run_cli(capsys, ["reduce", "--minkowski", "--point", path])
        assert code == 0
        rep = json.loads(out)
        red = decode_matrix(rep["outputs"]["reduced"])
        assert abs(red[0, 0] - 0.8) < 1e-9

    def test_minkowski_lost_definiteness(self, tmp_path, capsys):
        # a reduced Y, or exit 3 naming the cause: it used to say "Matrix is
        # not positive definite", a property the input has
        path = write_json(tmp_path / "y.json", {"Y": encode_matrix(DEFINITENESS_LOSS_Y)})
        code, out, err = run_cli(capsys, ["reduce", "--minkowski", "--point", path])
        if code == 0:
            reduced = decode_matrix(json.loads(out)["outputs"]["reduced"])
            assert is_minkowski_reduced(reduced)
        else:
            assert code == 3 and out == ""
            assert "lost definiteness" in err

    def test_huge_real_part(self, tmp_path, capsys):
        # the translation by -1e100 used to overflow an int64 cast, with a
        # numpy RuntimeWarning on stderr, and exit 3 at the iteration cap
        om = SiegelPoint.from_omega([[1e100 + 1j]])
        path = write_json(tmp_path / "p.json", encode_siegel_point(om))
        code, out, err = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 0 and err == ""
        rep = json.loads(out)["outputs"]
        assert rep["iterations"] == 1
        assert decode_siegel_point(rep["reduced"]).omega[0, 0] == 1j

    def test_lost_definiteness_in_a_step_exits_3(self, tmp_path, capsys):
        # a numeric failure on input the decoder accepts: it used to exit 2,
        # "error: Im(Omega) is not positive definite"
        om = SiegelPoint(*STEP_DEFINITENESS_LOSS)
        path = write_json(tmp_path / "p.json", encode_siegel_point(om))
        code, out, err = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 3 and out == ""
        assert err.startswith("numeric failure") and "not positive definite" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["reduce", "--siegel", "--point", str(bad)])
        assert code == 2
        assert "malformed JSON" in err

    def test_missing_field_named(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"omega": {"re": {"rows": 1}}})
        code, _, err = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 2
        assert "cols" in err or "omega" in err

    def test_member_threshold_point(self, tmp_path, capsys):
        # |det|^2 between 1/(1 + eps) and 1 - eps: both modes used to exit 3,
        # "highest-point step stalled on a non-member"
        om = SiegelPoint.from_omega([[STALL_OMEGA]])
        spath = write_json(tmp_path / "p.json", encode_siegel_point(om))
        code, out, _ = run_cli(capsys, ["member", "--siegel", "--point", spath])
        assert code == 0 and json.loads(out)["outputs"]["member"] is False
        code, out, _ = run_cli(capsys, ["reduce", "--siegel", "--point", spath])
        assert code == 0
        rep = json.loads(out)["outputs"]
        red = decode_siegel_point(rep["reduced"])
        assert rep["iterations"] == 1 and siegel_membership(red)[0]
        gamma = decode_symplectic(rep["gamma"])
        assert np.allclose(act_siegel(gamma, om).omega, red.omega)
        jp = JacobiPoint.from_z(om, [[0.25 + 0.5j]])
        jpath = write_json(tmp_path / "j.json", encode_jacobi_point(jp))
        code, out, _ = run_cli(capsys, ["reduce", "--jacobi", "--point", jpath])
        assert code == 0
        rep = json.loads(out)["outputs"]
        red = decode_jacobi_point(rep["reduced"])
        assert in_F_gh(red)
        back = act_jacobi(decode_jacobi_element(rep["gammaJ"]), red)
        assert np.allclose(back.omega.omega, om.omega) and np.allclose(back.Z, jp.Z)

    @pytest.mark.parametrize("y", SKEWED_YS)
    def test_skewed_y(self, tmp_path, capsys, y):
        # a valid Y with entries in the thousands used to exit 2,
        # "PosDefMatrix not symmetric", from the reducer's own product
        path = write_json(tmp_path / "y.json", {"Y": encode_matrix(y)})
        code, out, _ = run_cli(capsys, ["reduce", "--minkowski", "--point", path])
        assert code == 0
        u = decode_matrix(json.loads(out)["outputs"]["transform"])
        assert np.allclose(u.T @ y @ u, decode_matrix(json.loads(out)["outputs"]["reduced"]),
                           rtol=0, atol=1e-5)

    def test_skewed_im_omega(self, tmp_path, capsys):
        om = SiegelPoint.from_omega(1j * SKEWED_YS[0])
        path = write_json(tmp_path / "p.json", encode_siegel_point(om))
        code, out, _ = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 0
        red = decode_siegel_point(json.loads(out)["outputs"]["reduced"])
        assert siegel_membership(red)[0]

    def test_large_skewed_im_omega(self, tmp_path, capsys):
        # both modes used to exit 3, "action result lost symmetry (drift
        # 8.33e-07)", on the GL step of this Y
        om = SiegelPoint.from_omega(1j * SKEWED_YS[1])
        jp = JacobiPoint.from_z(om, [[0.3 + 0.2j, -0.1 + 0.4j]])
        size = np.max(np.abs(om.omega))
        path = write_json(tmp_path / "p.json", encode_siegel_point(om))
        code, out, _ = run_cli(capsys, ["reduce", "--siegel", "--point", path])
        assert code == 0
        rep = json.loads(out)["outputs"]
        red = decode_siegel_point(rep["reduced"])
        back = act_siegel(decode_symplectic(rep["gamma"]).inverse(), red)
        assert np.max(np.abs(back.omega - om.omega)) <= 1e-10 * size
        path = write_json(tmp_path / "j.json", encode_jacobi_point(jp))
        code, out, _ = run_cli(capsys, ["reduce", "--jacobi", "--point", path])
        assert code == 0
        rep = json.loads(out)["outputs"]
        back = act_jacobi(decode_jacobi_element(rep["gammaJ"]), decode_jacobi_point(rep["reduced"]))
        assert np.max(np.abs(back.omega.omega - om.omega)) <= 1e-10 * size
        assert np.max(np.abs(back.Z - jp.Z)) < 1e-9


class TestMemberCommand:
    def test_siegel_member(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json",
                          {"omega": encode_complex(1j * np.eye(2))})
        code, out, _ = run_cli(capsys, ["member", "--siegel", "--point", path])
        assert code == 0
        assert json.loads(out)["outputs"]["member"] is True

    def test_siegel_fractional_shape_exits_2(self, tmp_path, capsys):
        obj = {"omega": encode_complex(np.array([[1j]]))}
        obj["omega"]["re"].update(rows=1.7, cols=True)
        path = write_json(tmp_path / "p.json", obj)
        code, out, err = run_cli(capsys, ["member", "--siegel", "--point", path])
        assert code == 2 and out == ""
        assert "point.omega.re.rows" in err

    def test_jacobi_boundary_agrees_with_reduce(self, tmp_path, capsys):
        # Omega = i lies on |det(C Omega + D)| = 1; Z is inside the cell
        obj = encode_jacobi_point(JacobiPoint.from_z(SiegelPoint.from_omega([[1j]]),
                                                     [[0.3 + 0.4j]]))
        path = write_json(tmp_path / "p.json", obj)
        flags = []
        for cmd in ("member", "reduce"):
            code, out, _ = run_cli(capsys, [cmd, "--jacobi", "--point", path])
            assert code == 0
            flags.append(json.loads(out)["outputs"]["on_boundary"])
        assert flags == [True, True]

    def test_p_omega_two_e11_outside(self, tmp_path, capsys):
        zpath = write_json(tmp_path / "z.json",
                           {"Z": encode_complex(np.array([[2.0 + 0j]]))})
        opath = write_json(tmp_path / "om.json",
                           {"omega": encode_complex(np.array([[2j]]))})
        code, out, _ = run_cli(capsys, ["member", "--p-omega", "--point", zpath,
                                        "--omega", opath])
        assert code == 0
        assert json.loads(out)["outputs"]["member"] is False

    def test_p_omega_z_columns_named(self, tmp_path, capsys):
        # used to exit 2 with numpy's solve message
        zpath = write_json(tmp_path / "z.json", {"Z": encode_complex(np.zeros((1, 3)))})
        opath = write_json(tmp_path / "om.json", {"omega": encode_complex(1j * np.eye(2))})
        code, out, err = run_cli(capsys, ["member", "--p-omega", "--point", zpath,
                                        "--omega", opath])
        assert code == 2 and out == ""
        assert "Z has 3 columns, Omega is 2 x 2" in err

    def test_p_omega_requires_omega(self, tmp_path, capsys):
        zpath = write_json(tmp_path / "z.json",
                           {"Z": encode_complex(np.array([[0.5 + 0j]]))})
        code, _, err = run_cli(capsys, ["member", "--p-omega", "--point", zpath])
        assert code == 2
        assert "--omega" in err

    def test_p_omega_refuses_bound(self, tmp_path, capsys):
        # --bound is no option of any command; the Minkowski box is fixed at {0, +-1}
        zpath = write_json(tmp_path / "z.json",
                           {"Z": encode_complex(np.array([[0.25 + 0.5j]]))})
        opath = write_json(tmp_path / "om.json",
                           {"omega": encode_complex(np.array([[2j]]))})
        args = ["member", "--p-omega", "--point", zpath, "--omega", opath]
        code, out, _ = run_cli(capsys, args)
        assert code == 0 and json.loads(out)["outputs"]["member"] is True
        for bound in ("0", "3"):
            with pytest.raises(SystemExit) as exc:
                main(args + ["--bound", bound])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--bound" in captured.err


class TestNonFiniteInput:
    """NaN or inf anywhere in X or Y exits 2 naming the field, never a verdict."""

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_minkowski_y(self, tmp_path, capsys, bad):
        path = tmp_path / "y.json"
        path.write_text('{"Y": {"rows": 2, "cols": 2, "data": [1, 0, 0, %s]}}' % bad)
        for cmd in ("member", "reduce"):
            code, out, err = run_cli(capsys, [cmd, "--minkowski", "--point", str(path)])
            assert code == 2 and out == ""
            assert "point.Y.data holds a non-finite entry" in err

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_siegel_x_and_y(self, tmp_path, capsys, part, bad):
        obj = encode_siegel_point(SiegelPoint.from_omega(2j * np.eye(2)))
        obj["omega"][part]["data"][3] = "BAD"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj).replace('"BAD"', bad))
        for cmd in ("member", "reduce"):
            code, out, err = run_cli(capsys, [cmd, "--siegel", "--point", str(path)])
            assert code == 2 and out == ""
            assert "point.omega.%s.data holds a non-finite entry" % part in err


class TestBoundFlag:
    """The Minkowski box bound is the constant minkowski.DEFAULT_BOUND = 1:
    it reaches every Minkowski test, and --bound, which changed no answer,
    is refused like any unknown option."""

    @staticmethod
    def bounds_used(monkeypatch, capsys, args):
        """Box bounds the Minkowski tables are built from while sjk runs."""
        from siegeljacobi import minkowski
        seen = []
        real = minkowski._candidate_arrays

        def spy(g, bound):
            seen.append(bound)
            return real(g, bound)

        monkeypatch.setattr(minkowski, "_candidate_arrays", spy)
        minkowski._column_tables.cache_clear()
        try:
            code, _, _ = run_cli(capsys, args)
        finally:
            minkowski._column_tables.cache_clear()
        assert code == 0
        return set(seen)

    @staticmethod
    def assert_refused(capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--bound", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --bound 3" in captured.err

    @pytest.mark.parametrize("args", [["reduce", "--siegel"], ["reduce", "--jacobi"],
                                      ["member", "--siegel"], ["member", "--jacobi"],
                                      ["reduce", "--minkowski"], ["member", "--minkowski"]])
    def test_bound_reaches_library(self, tmp_path, capsys, rng, monkeypatch, args):
        from conftest import rand_interior_jacobi
        # a Jacobi point file serves the --siegel modes too (Z is ignored),
        # and the --minkowski modes through its Y
        point = encode_jacobi_point(rand_interior_jacobi(2, 1, rng))
        point["Y"] = point["omega"]["im"]
        args = args + ["--point", write_json(tmp_path / "p.json", point)]
        assert self.bounds_used(monkeypatch, capsys, args) == {1}
        self.assert_refused(capsys, args)

    def test_default_bound_is_one(self, capsys):
        from siegeljacobi.minkowski import DEFAULT_BOUND
        assert DEFAULT_BOUND == 1
        # the digest of this report when --bound defaulted to 3
        code, out, _ = run_cli(capsys, ["volume", "--g", "2", "--samples", "500"])
        assert code == 0 and json.loads(out)["inputs_digest"] == (
            "d057f15ea16d6d460821a64a4e18cf97288fbcd2548ba327537177675c1873ee")

    def test_bound_reaches_volume(self, capsys, monkeypatch):
        mc = ["volume", "--g", "2", "--samples", "500"]
        assert self.bounds_used(monkeypatch, capsys, mc) == {1}
        self.assert_refused(capsys, mc)
        self.assert_refused(capsys, ["volume", "--g", "1"])


class TestVolumeCommand:
    def test_digest_covers_eps_bound_candidates_and_nodes(self, tmp_path, capsys):
        def digest(args):
            code, out, _ = run_cli(capsys, ["volume"] + args)
            assert code == 0
            return json.loads(out)["inputs_digest"]

        mc = ["--g", "2", "--samples", "2000", "--seed", "3"]
        plain = digest(mc)
        assert digest(mc) == plain
        assert digest(mc + ["--eps", "1e-8"]) != plain
        write_candidates(builtin_candidates(2), tmp_path / "c.json")
        assert digest(mc + ["--candidates", str(tmp_path / "c.json")]) != plain
        assert digest(["--g", "1", "--nodes", "32"]) != digest(["--g", "1"])

    @pytest.mark.parametrize("g, equal, unequal", [("1", "0", "2"), ("2", "2", "1")])
    def test_equal_weights_name_samples(self, capsys, g, equal, unequal):
        # at seed `equal` both samples get the same weight: no error bar
        run = ["volume", "--g", g, "--samples", "2", "--seed"]
        code, out, err = run_cli(capsys, run + [equal])
        assert code == 2 and out == ""
        assert err.startswith("error: --samples: n_samples=2: ") and "variance" in err
        code, out, _ = run_cli(capsys, run + [unequal])
        assert code == 0 and json.loads(out)["outputs"]["stderr"] > 0

    @pytest.mark.parametrize("args, want", [
        (["--g", "1"], "8cd359e423d846aefae11edd2ae1b934d27b3b03eb3eb653256c38e9aec6e030"),
        (["--g", "1", "--nodes", "32"],
         "d8cded3c4620a30036ad1ef2c4892ce932d50ccbd954d8b4ab3732ca5055ecd9"),
        (["--g", "2", "--samples", "2000", "--seed", "3"],
         "d77dc809f7a820b4342a03e86aac85aad2e4d513331a151dc1ee506dccf12b11"),
        (["--g", "2", "--samples", "500", "--threads", "2", "--eps", "1e-8"],
         "6991b7fbacd98ff0d4977cfd2668f8a064295fbbe7465884d4b601a30314f11e")])
    def test_digest_pinned(self, capsys, args, want):
        # the digests these command lines had while --bound existed (default 3)
        # and every volume flag had a default: both still enter the hash
        code, out, _ = run_cli(capsys, ["volume"] + args)
        assert code == 0 and json.loads(out)["inputs_digest"] == want

    @pytest.mark.parametrize("args", [["--g", "1", "--seed", "0"],
                                      ["--g", "1", "--threads", "2"],
                                      ["--g", "1", "--eps", "0.3"],
                                      ["--g", "1", "--candidates", "nonexistent.json"],
                                      ["--g", "2", "--samples", "100", "--nodes", "64"]])
    def test_flag_of_the_other_method_is_refused(self, capsys, args):
        # quadrature used to accept these and report {"eps": 0.3} as its tolerance
        code, out, err = run_cli(capsys, ["volume"] + args)
        flag = next(a for a in args[2:] if a.startswith("--") and a != "--samples")
        assert code == 2 and out == ""
        assert "%s does not apply" % flag in err

    def test_quadrature_report(self, capsys):
        code, out, _ = run_cli(capsys, ["volume", "--g", "1"])
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["outputs"]["estimate"] - np.pi / 3) < 1e-8
        assert rep["outputs"]["method"] == "quadrature"
        assert rep["tolerances"] == {}

    def test_mc_report_and_determinism(self, capsys):
        args = ["volume", "--g", "1", "--samples", "100000", "--seed", "5"]
        code, out1, _ = run_cli(capsys, args)
        assert code == 0
        code, out2, _ = run_cli(capsys, args)
        rep1, rep2 = json.loads(out1), json.loads(out2)
        assert rep1["outputs"] == rep2["outputs"]
        assert rep1["outputs"]["sigmas"] < 4

    def test_quadrature_only_for_g1(self, capsys):
        code, _, err = run_cli(capsys, ["volume", "--g", "2"])
        assert code == 2
        assert "--samples" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["volume", "--g", "1", "--nonsense"])
        assert exc.value.code == 2


class TestSpectralCheckCommand:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, ["spectral-check", "--g", "1", "--h", "1",
                                        "--max-freq", "2"])
        assert code == 0
        rep = json.loads(out)["outputs"]
        assert rep["orthonormality_max_dev"] < 1e-10
        assert rep["periodicity_max_dev"] < 1e-12
        assert all(r < 1e-5 for r in rep["eigen_residuals"])

    def test_eigen_residuals_pinned(self, capsys):
        # the fiber Laplacian's residuals, bit for bit as recorded when the
        # stencil still built and evaluated one displaced point at a time
        code, out, _ = run_cli(capsys, ["spectral-check", "--g", "2", "--h", "1",
                                        "--eigen-checks", "4", "--seed", "11"])
        assert code == 0
        got = [float.hex(r) for r in json.loads(out)["outputs"]["eigen_residuals"]]
        assert got == ["0x1.1fc714aec3930p-34", "0x1.190e5a0a6b51cp-30",
                       "0x1.e5ca2c783a8cbp-34", "0x1.e9d80adcf812dp-37"]

    def test_grid_too_large_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["spectral-check", "--g", "3", "--h", "2"])
        assert code == 3
        assert "infeasible" in err


class TestUnappliedFlags:
    """spectral-check and metric-eval apply no tolerance or bound, so they
    refuse --eps and --bound, and report no tolerance."""

    @pytest.mark.parametrize("flag", [["--bound", "0"], ["--eps", "5"]])
    def test_spectral_check_refuses(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["spectral-check", "--g", "1", "--h", "1"] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--bound", "0"], ["--eps", "5"]])
    def test_metric_eval_refuses(self, tmp_path, capsys, flag):
        path = write_json(tmp_path / "m.json", {"Y": encode_matrix(np.eye(1)),
                                                "H1": encode_matrix(np.eye(1)),
                                                "H2": encode_matrix(np.eye(1))})
        with pytest.raises(SystemExit) as exc:
            main(["metric-eval", "--kind", "P", "--point", path] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_no_tolerance_reported(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"Y": encode_matrix(np.eye(1)),
                                                "H1": encode_matrix(np.eye(1)),
                                                "H2": encode_matrix(np.eye(1))})
        for argv in (["spectral-check", "--g", "1", "--h", "1", "--eigen-checks", "1"],
                     ["metric-eval", "--kind", "P", "--point", path]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0 and json.loads(out)["tolerances"] == {}


class TestMetricEvalCommand:
    def test_p_kind(self, tmp_path, capsys):
        obj = {"Y": encode_matrix(np.eye(2)),
               "H1": encode_matrix(np.eye(2)),
               "H2": encode_matrix(np.eye(2))}
        path = write_json(tmp_path / "m.json", obj)
        code, out, _ = run_cli(capsys, ["metric-eval", "--kind", "P",
                                        "--point", path])
        assert code == 0
        assert abs(json.loads(out)["outputs"]["value"] - 2.0) < 1e-12

    def test_jacobi_kind(self, tmp_path, capsys, rng):
        p = rand_jacobi_point(1, 1, rng)
        obj = encode_jacobi_point(p)
        obj["T1"] = {"dOmega": encode_complex(np.array([[1.0 + 0j]])),
                     "dZ": encode_complex(np.array([[0j]]))}
        obj["T2"] = dict(obj["T1"])
        path = write_json(tmp_path / "m.json", obj)
        code, out, _ = run_cli(capsys, ["metric-eval", "--kind", "jacobi",
                                        "--point", path])
        assert code == 0
        from siegeljacobi.geometry import metric_jacobi
        want = metric_jacobi(p, (np.array([[1.0]]), np.array([[0j]])),
                             (np.array([[1.0]]), np.array([[0j]])))
        assert abs(json.loads(out)["outputs"]["value"] - want) < 1e-12


class TestCandidateOverride:
    def test_candidates_flag(self, tmp_path, capsys):
        write_candidates(builtin_candidates(1), tmp_path / "c.json")
        path = write_json(tmp_path / "p.json",
                          {"omega": encode_complex(np.array([[0.3 + 0.05j]]))})
        code, out, _ = run_cli(capsys, ["reduce", "--siegel", "--point", path,
                                        "--candidates", str(tmp_path / "c.json")])
        assert code == 0

    def test_family_of_another_g_is_refused(self, tmp_path, capsys):
        # the g = 1 family on a g = 2 point used to fail inside numpy's matmul
        cpath = str(tmp_path / "candidates_g2.json")
        write_candidates(builtin_candidates(1), cpath)
        path = write_json(tmp_path / "p.json", {"omega": encode_complex(1j * np.eye(2))})
        code, out, err = run_cli(capsys, ["member", "--siegel", "--point", path,
                                          "--candidates", cpath])
        assert code == 2 and out == ""
        assert "--candidates %s: " % cpath in err
        assert "has g=1, the input has g=2" in err

    @pytest.mark.parametrize("content, msg", [(None, "No such file"),
                                              ("{not json", "malformed JSON")])
    @pytest.mark.parametrize("args", [["reduce", "--siegel"], ["member", "--jacobi"],
                                      ["volume", "--g", "1", "--samples", "100"]])
    def test_unreadable_file_is_named(self, tmp_path, capsys, args, content, msg):
        # a missing file used to escape as a FileNotFoundError traceback (exit 1),
        # a malformed one to exit 2 without naming the file
        cpath = tmp_path / "c.json"
        if content is not None:
            cpath.write_text(content)
        if args[0] != "volume":
            point = encode_jacobi_point(JacobiPoint.from_z(
                SiegelPoint.from_omega([[2j]]), [[0.3 + 0.4j]]))
            args = args + ["--point", write_json(tmp_path / "p.json", point)]
        code, out, err = run_cli(capsys, args + ["--candidates", str(cpath)])
        assert code == 2 and out == ""
        assert "--candidates %s: " % cpath in err and msg in err


    @pytest.mark.parametrize("mode", [["reduce", "--minkowski"], ["member", "--minkowski"],
                                      ["member", "--p-omega"]])
    def test_refused_where_no_family_is_read(self, tmp_path, capsys, mode):
        # these modes read no candidate family: the flag used to be ignored,
        # so even a file that does not exist exited 0
        if mode[1] == "--p-omega":
            opath = write_json(tmp_path / "om.json", {"omega": encode_complex(np.array([[2j]]))})
            point = {"Z": encode_complex(np.array([[0.25 + 0.5j]]))}
            mode = mode + ["--omega", opath]
        else:
            point = {"Y": encode_matrix(np.eye(2))}
        args = mode + ["--point", write_json(tmp_path / "p.json", point)]
        code, _, _ = run_cli(capsys, args)
        assert code == 0
        code, out, err = run_cli(capsys, args + ["--candidates", str(tmp_path / "none.json")])
        assert code == 2 and out == ""
        assert "--candidates does not apply to %s" % mode[1] in err

class TestEpsFlag:
    """--eps is a finite tolerance >= 0.  -1e-12 used to make member --siegel
    say false and reduce --siegel stall with exit 3, nan to put a non-JSON
    NaN in the report, inf to flag every point a boundary member."""

    POINT = {"omega": encode_complex(np.array([[0.1 + 2j]]))}

    @pytest.mark.parametrize("eps", ["-1e-12", "nan", "inf"])
    @pytest.mark.parametrize("cmd", [["reduce", "--siegel"], ["member", "--siegel"],
                                     ["volume", "--g", "2", "--samples", "100"]])
    def test_refused(self, tmp_path, capsys, cmd, eps):
        path = write_json(tmp_path / "p.json", self.POINT)
        args = cmd + ([] if cmd[0] == "volume" else ["--point", path])
        with pytest.raises(SystemExit) as exc:
            main(args + ["--eps=" + eps])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    def test_zero_accepted(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", self.POINT)
        code, out, _ = run_cli(capsys, ["member", "--siegel", "--point", path, "--eps", "0"])
        assert code == 0
        assert json.loads(out)["outputs"] == {"member": True, "on_boundary": False}


class TestIntegerFlags:
    """An integer flag below its least value exits 2 naming the flag.
    spectral-check --nodes 0 used to report a non-JSON NaN, --threads -5 and
    --eigen-checks -1 passed silently, and --g 0 met a numpy message."""

    @pytest.mark.parametrize("argv", [
        ["volume", "--g", "0"], ["volume", "--g", "2", "--samples", "0"],
        ["volume", "--g", "2", "--samples", "100", "--seed", "-1"],
        ["volume", "--g", "2", "--samples", "100", "--threads", "-5"],
        ["volume", "--g", "1", "--nodes", "0"], ["volume", "--g", "1.5"],
        ["spectral-check", "--g", "0"], ["spectral-check", "--h", "0"],
        ["spectral-check", "--max-freq", "-1"], ["spectral-check", "--nodes", "0"],
        ["spectral-check", "--seed", "-1"], ["spectral-check", "--eigen-checks", "-1"],
        ["volume", "--g", "2", "--samples", "1"]])
    def test_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument %s:" % argv[-2] in captured.err

    def test_least_values_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["spectral-check", "--nodes", "1", "--max-freq", "0",
                                        "--eigen-checks", "0", "--seed", "0"])
        assert code == 0
        json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity


class TestConePointY:
    """A cone point's Y must be symmetric positive definite; the error names
    point.Y.  metric-eval --kind P used to evaluate any Y."""

    @pytest.mark.parametrize("y, msg", [([[1.0, 3.0], [0.0, -1.0]], "point.Y not symmetric"),
                                        ([[1.0, 0.0], [0.0, -1.0]],
                                         "point.Y is not positive definite")])
    @pytest.mark.parametrize("cmd", [["metric-eval", "--kind", "P"],
                                     ["reduce", "--minkowski"], ["member", "--minkowski"]])
    def test_invalid_y_named(self, tmp_path, capsys, cmd, y, msg):
        eye = encode_matrix(np.eye(2))
        path = write_json(tmp_path / "y.json", {"Y": encode_matrix(np.array(y)),
                                                "H1": eye, "H2": eye})
        code, out, err = run_cli(capsys, cmd + ["--point", path])
        assert code == 2 and out == ""
        assert msg in err


class TestGuarantee:
    """Reports whose verdict rests on a candidate set say what it proves,
    beside ``outputs`` (which must stay equal to the library's dicts)."""

    @pytest.fixture
    def points(self, tmp_path):
        om2 = SiegelPoint.from_omega([[0.1 + 1.2j, 0.2 + 0.3j], [0.2 + 0.3j, 0.3 + 1.5j]])
        om3 = SiegelPoint.from_omega(1j * np.eye(3))
        jp = JacobiPoint.from_z(om2, [[0.3 + 0.4j, 0.1 + 0.2j]])
        return {"g2": write_json(tmp_path / "g2.json", encode_siegel_point(om2)),
                "g3": write_json(tmp_path / "g3.json", encode_siegel_point(om3)),
                "jac": write_json(tmp_path / "jac.json", encode_jacobi_point(jp)),
                "y": write_json(tmp_path / "y.json", {"Y": encode_matrix(np.eye(2))})}

    def report(self, capsys, args):
        code, out, _ = run_cli(capsys, args)
        assert code == 0
        rep = json.loads(out)
        assert "guarantee" not in rep["outputs"]
        return rep

    def test_membership_claims_carry_it(self, capsys, points):
        for args in (["reduce", "--siegel", "--point", points["g2"]],
                     ["reduce", "--jacobi", "--point", points["jac"]],
                     ["member", "--siegel", "--point", points["g2"]],
                     ["member", "--jacobi", "--point", points["jac"]],
                     ["volume", "--g", "2", "--samples", "2000"],
                     ["volume", "--g", "1", "--samples", "2000"]):
            assert self.report(capsys, args)["guarantee"] == "exact", args
        for cmd in ("reduce", "member"):
            rep = self.report(capsys, [cmd, "--siegel", "--point", points["g3"]])
            assert rep["guarantee"] == "relative-to-family"

    def test_other_reports_omit_it(self, capsys, points, tmp_path):
        opath = write_json(tmp_path / "om.json", encode_siegel_point(
            SiegelPoint.from_omega([[2j]])))
        zpath = write_json(tmp_path / "z.json", {"Z": encode_complex(np.array([[0.5 + 0j]]))})
        for args in (["reduce", "--minkowski", "--point", points["y"]],
                     ["member", "--minkowski", "--point", points["y"]],
                     ["member", "--p-omega", "--point", zpath, "--omega", opath],
                     ["volume", "--g", "1"]):
            assert "guarantee" not in self.report(capsys, args), args

    def test_family_without_the_19_is_relative(self, capsys, points, tmp_path):
        full = builtin_candidates(2)
        keep = tuple(m for m, row in zip(full.elements, full.det_table)
                     if tuple(abs(row).astype(int)) != (0, 0, 0, 1, 0))
        write_candidates(CandidateSet(2, keep), tmp_path / "c.json")
        for args in (["member", "--siegel", "--point", points["g2"]],
                     ["reduce", "--siegel", "--point", points["g2"]],
                     ["volume", "--g", "2", "--samples", "2000"]):
            rep = self.report(capsys, args + ["--candidates", str(tmp_path / "c.json")])
            assert rep["guarantee"] == "relative-to-family", args


# ---------------------------------------------------------------------------
# malformed input: every input path, one bad field at a time
# ---------------------------------------------------------------------------

def _input_paths():
    """(argv, {document name: valid document}) for every sjk input path; a
    document named n is passed as --n FILE."""
    om = SiegelPoint.from_omega(np.array([[0.1 + 1.5j, 0.2 + 0.3j],
                                          [0.2 + 0.3j, -0.1 + 1.8j]]))
    jp = JacobiPoint.from_z(om, np.array([[0.3 + 0.4j, 0.1 + 0.2j]]))
    y = {"Y": encode_matrix(om.Y)}
    t = encode_complex(np.array([[1.0 + 0.5j, 0.2], [0.2, 1.0 - 0.25j]]))
    tj = {"dOmega": t, "dZ": encode_complex(np.array([[0.5 + 1j, 0.25]]))}
    siegel, jacobi = encode_siegel_point(om), encode_jacobi_point(jp)
    paths = []
    for cmd in ("reduce", "member"):
        paths += [([cmd, "--minkowski"], {"point": y}),
                  ([cmd, "--siegel"], {"point": siegel}),
                  ([cmd, "--jacobi"], {"point": jacobi})]
    paths += [(["member", "--p-omega"], {"point": {"Z": jacobi["Z"]}, "omega": siegel}),
              (["metric-eval", "--kind", "P"],
               {"point": dict(y, H1=encode_matrix(om.X), H2=encode_matrix(om.Y))}),
              (["metric-eval", "--kind", "siegel"], {"point": dict(siegel, T1=t, T2=t)}),
              (["metric-eval", "--kind", "jacobi"], {"point": dict(jacobi, T1=tj, T2=tj)})]
    return json.loads(json.dumps(paths))    # no two fields share an object


INPUT_PATHS = _input_paths()


def _fields(node, path, keys=()):
    """(field path, key sequence, node) for node and everything below it; a
    list entry goes by the path of its list, which is what errors name."""
    yield path, keys, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _fields(v, "%s.%s" % (path, k), keys + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _fields(v, path, keys + (i,))


def _bad_values(key, node):
    if isinstance(node, dict):
        return ["Yes", 5, None, [1, 2], True]           # a non-object
    if key in ("rows", "cols"):
        return [1.5, -1, 2.0, "2", None, True, [2]]     # fractional, negative, wrong type
    if isinstance(node, list):
        return ["ab", {"a": 1}, 5, None]                # data of the wrong type
    return [True, False, "2", None, [1.0],              # bool, string or other entry,
            float("inf"), -float("inf"), float("nan")]  # and Infinity/NaN tokens


def _replaced(doc, keys, value):
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return doc


def _with_files(workdir, argv, docs):
    """argv with each document written to a new directory under workdir and
    passed as --name FILE."""
    workdir = workdir / str(len(list(workdir.iterdir())))
    workdir.mkdir()
    args = list(argv)
    for name, doc in docs.items():
        path = workdir / ("%s.json" % name)
        path.write_text(json.dumps(doc))       # inf and nan become Infinity/NaN
        args += ["--" + name, str(path)]
    return args


def _run_documents(workdir, argv, docs):
    """Exit code, stdout and stderr of sjk on the documents, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_with_files(workdir, argv, docs))
    return code, out.getvalue(), err.getvalue()


class TestMalformedInput:
    """A bad field in any input document exits 2 with empty stdout and the
    field's path on stderr: never a report (0), never a traceback (1)."""

    @pytest.mark.parametrize("argv, docs", INPUT_PATHS,
                             ids=[" ".join(argv) for argv, _ in INPUT_PATHS])
    def test_valid_documents_run(self, tmp_path, argv, docs):
        code, out, _ = _run_documents(tmp_path, argv, docs)
        assert code == 0 and json.loads(out)["outputs"]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_bad_field_exits_2_naming_it(self, tmp_path_factory, data):
        argv, docs = data.draw(st.sampled_from(INPUT_PATHS))
        name = data.draw(st.sampled_from(sorted(docs)))
        path, keys, node = data.draw(st.sampled_from(list(_fields(docs[name], name))))
        key = next((k for k in reversed(keys) if isinstance(k, str)), None)
        bad = data.draw(st.sampled_from(_bad_values(key, node)))
        docs = dict(docs, **{name: _replaced(docs[name], keys, bad)})
        code, out, err = _run_documents(tmp_path_factory.mktemp("bad"), argv, docs)
        assert (code, out) == (2, ""), (path, bad, err)
        assert path in err, (path, bad, err)

    @pytest.mark.parametrize("cmd", ["member", "reduce"])
    @pytest.mark.parametrize("doc", ["Yes", 5, None])
    def test_minkowski_document_not_an_object(self, tmp_path, cmd, doc):
        code, out, err = _run_documents(tmp_path, [cmd, "--minkowski"], {"point": doc})
        assert (code, out) == (2, "") and "point: expected an object" in err

    @pytest.mark.parametrize("entry", [True, "2"])
    def test_minkowski_entry_not_a_number(self, tmp_path, entry):
        y = encode_matrix(np.eye(2))
        y["data"][0] = entry
        code, out, err = _run_documents(tmp_path, ["reduce", "--minkowski"], {"point": {"Y": y}})
        assert (code, out) == (2, "") and "point.Y.data holds a non-number" in err

    def test_p_omega_point_not_an_object(self, tmp_path):
        argv, docs = INPUT_PATHS[6]
        assert argv == ["member", "--p-omega"]
        code, out, err = _run_documents(tmp_path, argv, dict(docs, point=[1, 2]))
        assert (code, out) == (2, "") and "point: expected an object" in err

    def test_jacobi_tangent_not_an_object(self, tmp_path):
        argv, docs = INPUT_PATHS[-1]
        docs = {"point": dict(docs["point"], T1=3)}
        code, out, err = _run_documents(tmp_path, argv, docs)
        assert (code, out) == (2, "") and "point.T1: expected an object" in err

    def test_integer_beyond_float_range(self):
        with pytest.raises(ValueError, match="Y.data holds a non-finite entry"):
            decode_matrix({"rows": 1, "cols": 1, "data": [10 ** 400]}, "Y")


class TestMetricEvalTangents:
    """metric-eval checks each tangent's shape (g x g for H, T and dOmega,
    h x g for dZ) and the symmetry of H, T and dOmega, part by part."""

    def run(self, tmp_path, kind, point):
        return _run_documents(tmp_path, ["metric-eval", "--kind", kind], {"point": point})

    @staticmethod
    def docs(kind):
        return next(d["point"] for a, d in INPUT_PATHS if a[-1] == kind)

    UPPER = np.array([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("kind, key, t, field", [
        ("P", "H1", UPPER, "point.H1 not symmetric"),
        ("siegel", "T1", UPPER + 0.5j * np.eye(2), "point.T1.re not symmetric"),
        ("siegel", "T2", np.eye(2) + 1j * UPPER, "point.T2.im not symmetric"),
        ("jacobi", "T1", UPPER + 0.5j * np.eye(2), "point.T1.dOmega.re not symmetric"),
        ("jacobi", "T2", np.eye(2) + 1j * UPPER, "point.T2.dOmega.im not symmetric")])
    def test_non_symmetric_tangent(self, tmp_path, kind, key, t, field):
        point = copy.deepcopy(self.docs(kind))
        if kind == "P":
            point[key] = encode_matrix(t)
        elif kind == "siegel":
            point[key] = encode_complex(t)
        else:
            point[key]["dOmega"] = encode_complex(t)
        code, out, err = self.run(tmp_path, kind, point)
        assert (code, out) == (2, "") and field in err

    def test_siegel_value_of_non_symmetric_tangent_refused(self, tmp_path):
        # this tangent used to give the value 2.0 at Omega = i I
        t = encode_complex(np.array([[1.0, 2.0], [0.0, 1.0]]))
        point = dict(encode_siegel_point(SiegelPoint.from_omega(1j * np.eye(2))), T1=t, T2=t)
        code, out, err = self.run(tmp_path, "siegel", point)
        assert (code, out) == (2, "") and "point.T1.re not symmetric" in err

    @pytest.mark.parametrize("kind, key, field", [
        ("P", "H2", "point.H2: expected a 1 x 1 matrix, got 2 x 2"),
        ("siegel", "T1", "point.T1: expected a 1 x 1 matrix, got 2 x 2"),
        ("jacobi", "dOmega", "point.T1.dOmega: expected a 1 x 1 matrix, got 2 x 2"),
        ("jacobi", "dZ", "point.T1.dZ: expected a 2 x 1 matrix, got 1 x 2")])
    def test_wrong_shape(self, tmp_path, kind, key, field):
        # a g = 1 point (h = 2 for jacobi) with 2 x 2 or 1 x 2 tangents
        om = SiegelPoint.from_omega([[0.1 + 1.2j]])
        if kind == "P":
            point = dict(self.docs("P"), Y=encode_matrix(om.Y), H1=encode_matrix([[1.0]]))
        elif kind == "siegel":
            point = dict(self.docs("siegel"), **encode_siegel_point(om))
        else:
            point = dict(self.docs("jacobi"), **encode_jacobi_point(
                JacobiPoint.from_z(om, [[0.2 + 0.1j], [0.3 - 0.2j]])))
            good = {"dOmega": encode_complex([[1.0]]), "dZ": encode_complex([[1.0], [0.5j]])}
            point["T2"] = good
            point["T1"] = dict(good, **{key: self.docs("jacobi")["T1"][key]})
        code, out, err = self.run(tmp_path, kind, point)
        assert (code, out) == (2, "") and field in err

    def test_rounding_level_asymmetry_accepted(self, tmp_path):
        point = copy.deepcopy(self.docs("siegel"))
        point["T1"]["re"]["data"][1] += 1e-13
        code, out, _ = self.run(tmp_path, "siegel", point)
        assert code == 0 and np.isfinite(json.loads(out)["outputs"]["value"])


# ---------------------------------------------------------------------------
# one parser per process, one write per report
# ---------------------------------------------------------------------------

class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _run_in_process(argv):
    """Exit code (a SystemExit's included), stdout, its number of writes, stderr."""
    out, err = _CountingWriter(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), out.writes, err.getvalue()


class TestParserReuse:
    """main() builds the parser on its first call and reuses it: no command
    may see state left on it by the one before."""

    def test_sequence_matches_a_fresh_parser(self, tmp_path):
        docs = {" ".join(argv): d for argv, d in INPUT_PATHS}
        sequence = [
            ["volume", "--g", "1", "--nonsense"],
            ["volume", "--g", "2", "--samples", "500", "--seed", "5"],
            ["volume", "--g", "1"],
            _with_files(tmp_path, ["member", "--p-omega"],
                        {"point": docs["member --p-omega"]["point"]}),
            _with_files(tmp_path, ["reduce", "--siegel"], docs["reduce --siegel"]),
            _with_files(tmp_path, ["reduce", "--minkowski"], docs["reduce --minkowski"])]

        def outcome(argv):
            code, out, _, err = _run_in_process(argv)
            rep = json.loads(out) if out else {}
            return code, rep.get("outputs"), rep.get("inputs_digest"), err

        fresh = []
        for argv in sequence:
            _build_parser.cache_clear()
            fresh.append(outcome(argv))
        _build_parser.cache_clear()
        reused = [outcome(argv) for argv in sequence]
        assert _build_parser.cache_info().misses == 1
        assert [r[0] for r in reused] == [2, 0, 0, 2, 0, 0]
        assert "--nonsense" in reused[0][3]
        assert "--omega FILE is required" in reused[3][3]
        assert reused[2][1]["method"] == "quadrature"
        assert reused == fresh


REPORT_COMMANDS = INPUT_PATHS + [
    (["volume", "--g", "1"], {}),
    (["volume", "--g", "2", "--samples", "500", "--seed", "5"], {}),
    (["spectral-check", "--g", "1", "--h", "1", "--eigen-checks", "2"], {})]


class TestReportBytes:
    """A report is json.dumps(rep, sort_keys=True) plus a newline in one
    write; its bytes must be those of the streaming json.dump it replaced."""

    @pytest.mark.parametrize("argv, docs", REPORT_COMMANDS,
                             ids=[" ".join(argv) for argv, _ in REPORT_COMMANDS])
    def test_matches_streaming_dump(self, tmp_path, monkeypatch, argv, docs):
        reports, dumps = [], json.dumps

        def spy(obj, **kw):
            if isinstance(obj, dict) and "timing_s" in obj:
                reports.append(obj)
            return dumps(obj, **kw)

        monkeypatch.setattr(json, "dumps", spy)
        code, out, writes, _ = _run_in_process(_with_files(tmp_path, argv, docs))
        assert code == 0 and writes == 1 and len(reports) == 1
        oracle = io.StringIO()
        json.dump(reports[0], oracle, sort_keys=True)
        oracle.write("\n")
        assert out == oracle.getvalue()
