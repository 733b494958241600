import json
import subprocess
import sys
import time


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "stratify.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestScenarioCommand:
    def test_builtin_text(self):
        code, out, _ = run_cli("scenario", "run", "binary12")
        assert code == 0
        assert "all checks passed" in out
        assert "[1, 1, 2, 2, 3, 3, 2, 2, 1, 1]" in out

    def test_json_round_trips(self):
        code, out, _ = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "cubiccurve"
        assert doc["tables"]["git_quotient_IH"]["even"] == [1, 1]

    def test_json_deterministic(self):
        a = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        b = run_cli("--format", "json", "scenario", "run", "cubiccurve")
        assert a == b

    def test_latex(self):
        code, out, _ = run_cli("scenario", "run", "cubiccurve", "--format", "latex")
        assert code == 0 and r"\begin{array}" in out

    def test_parse_error_exit_code(self):
        code, _, err = run_cli("scenario", "run", "no-such-scenario")
        assert code == 3
        assert json.loads(err.strip())["error"] == "parse"

    def test_check_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad", "order": 4,
            "steps": [{"id": "a", "op": "projective_series", "args": {"dim": 1},
                       "expect": {"kind": "series", "order": 4,
                                  "triples": [[0, 9, 1]]}}]}))
        code, _, err = run_cli("scenario", "run", str(bad))
        assert code == 2
        assert json.loads(err.strip())["error"] == "check"

    def test_bad_step_argument_exit_code(self, tmp_path):
        for args, named in (({"n": 4}, "'d'"), ({"n": "4", "d": 3}, "'n'")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({
                "name": "bad",
                "steps": [{"id": "ws", "op": "hypersurface_weights", "args": args}]}))
            code, _, err = run_cli("scenario", "run", str(bad))
            assert code == 3
            err = json.loads(err.strip())
            assert err["error"] == "parse"
            assert "'ws'" in err["message"] and named in err["message"]


    def test_huge_truncation_order_hits_the_cap(self, tmp_path):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"name": "huge", "order": 100000000, "steps": [
            {"id": "p", "op": "projective_series", "args": {"dim": 2}}]}))
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"name": "step", "steps": [
            {"id": "p", "op": "projective_series", "args": {"dim": 2, "order": 100000000}}]}))
        for argv in (("scenario", "run", str(doc)), ("scenario", "run", str(step)),
                     ("molien", "--gens", "[[[1]]]", "--truncate", "100000000")):
            t0 = time.perf_counter()
            code, _, err = run_cli(*argv)
            assert time.perf_counter() - t0 < 1
            assert code == 4 and json.loads(err)["error"] == "resource-cap"


class TestLatticeCommand:
    def test_weyl_order(self):
        code, out, _ = run_cli("lattice", "weyl-order", "E3")
        assert code == 0 and out.strip() == "648"

    def test_roots_json(self):
        code, out, _ = run_cli("--format", "json", "lattice", "roots", "E4")
        assert code == 0 and json.loads(out)["count"] == 240

    def test_discriminant(self):
        code, out, _ = run_cli("lattice", "discriminant", "E3")
        assert code == 0 and "[3]" in out

    def test_z_form_csv(self):
        code, out, _ = run_cli("--format", "csv", "lattice", "z-form", "E1")
        assert code == 0 and out.splitlines() == ["-2,1", "1,-2"]

    def test_lattice_file(self, tmp_path):
        f = tmp_path / "lat.json"
        f.write_text(json.dumps({"gram": [[3]]}))
        code, out, _ = run_cli("lattice", "weyl-order", str(f))
        assert code == 0 and out.strip() == "3"


class TestStrataCommand:
    def test_min_codim_line(self):
        code, out, _ = run_cli("strata", "--n", "4", "--d", "3", "--truncate", "5")
        assert code == 0
        assert "minimal nonzero expected codimension: 5" in out

    def test_csv(self):
        code, out, _ = run_cli("--format", "csv", "strata", "--n", "1", "--d", "12")
        assert code == 0
        assert out.splitlines()[0] == "beta,norm2,n_beta,dim_g_mod_p,codim_expected"


class TestOtherCommands:
    def test_molien_inline(self):
        code, out, _ = run_cli(
            "molien", "--gens", "[[[0,1],[1,0]],[[-1,1],[-1,0]]]",
            "--degree", "2", "--truncate", "8")
        assert code == 0 and "group order 6" in out

    def test_blowup(self):
        code, out, _ = run_cli(
            "blowup", "--exceptional",
            '{"complex_dim":3,"even":[1,1,1,1],"odd":[0,0,0]}', "--dim", "4")
        assert code == 0 and "t^2" in out

    def test_boundary(self):
        code, out, _ = run_cli(
            "boundary", '{"factors":[{"lattice":"E3","group":"weyl","count":3}]}')
        assert code == 0 and "[1, 1, 2, 3, 3, 3, 3, 2, 1, 1]" in out

    def test_boundary_bad_spec_is_parse_error(self):
        code, _, err = run_cli("boundary", '{"factors":[{"group":"weyl","count":2}]}')
        assert code == 3
        err = json.loads(err)
        assert err["error"] == "parse"
        assert "spec.factors[0]" in err["message"] and "'lattice'" in err["message"]

    def test_cache_dir(self, tmp_path):
        code, out, _ = run_cli("--cache-dir", str(tmp_path),
                               "lattice", "weyl-order", "E3")
        assert code == 0 and out.strip() == "648"
        assert list(tmp_path.iterdir())
        code2, out2, _ = run_cli("--cache-dir", str(tmp_path),
                                 "lattice", "weyl-order", "E3")
        assert code2 == 0 and out2.strip() == "648"
