import json
import math
import os

import jsonschema
import numpy as np
import pytest

from ctxupb import cli, jsonio, upb
from ctxupb.families import one_param_family

from conftest import qubit_basis

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json")) as fh:
        return json.load(fh)


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys, schema=None):
    code, out = run_cli(argv, capsys)
    assert code == 0, out
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("envelope"))
    if schema:
        jsonschema.validate(doc["result"], load_schema(schema))
    return doc


class TestCommands:
    def test_family_kcbs_graph_edges(self, capsys):
        doc = run_json(["graph", "kcbs"], capsys, schema="graph")
        assert doc["result"]["edges"] == [[0, 1], [0, 4], [1, 2], [2, 3],
                                          [3, 4]]

    def test_family_one_param_pi_expression(self, capsys):
        doc = run_json(["family", "one-param", "--theta", "3pi/4"], capsys,
                       schema="vector_family")
        want = one_param_family(3 * math.pi / 4)
        got = np.array([[complex(re, im) for re, im in v]
                        for v in doc["result"]["vectors"]])
        assert np.max(np.abs(got - np.array(want.vectors))) <= 1e-12

    def test_family_json_schema(self, capsys):
        run_json(["family", "pyramid"], capsys, schema="vector_family")
        run_json(["family", "quadres", "--p", "13"], capsys,
                 schema="vector_family")

    def test_verify_upb_bound_certificate(self, capsys):
        doc = run_json(["verify-upb", "gencontextual", "--n", "7",
                        "--method", "bound"], capsys, schema="upb_verdict")
        res = doc["result"]
        assert res["status"] == "CertifiedUnextendible"
        assert res["certificate"] == [2, 4]
        assert res["minimal"] is True

    def test_pyramid_angle_label(self, capsys):
        # the Table 1 label of the Pyramid row names the Pyramid UPB
        label = "acos((sqrt(5)-1)/2)"
        doc = run_json(["verify-upb", "one-param", "--theta", label,
                        "--method", "exact"], capsys, schema="upb_verdict")
        assert doc["result"]["status"] == "UPB"
        doc = run_json(["equiv", "pyramid", f"one-param:{label}"], capsys,
                       schema="equiv")
        assert doc["result"]["equivalent"] is True

    def test_verify_upb_exact_pyramid(self, capsys):
        doc = run_json(["verify-upb", "pyramid", "--method", "exact"],
                       capsys, schema="upb_verdict")
        assert doc["result"]["status"] == "UPB"

    def test_strength(self, capsys):
        doc = run_json(["strength", "one-param", "--theta", "pi/6"], capsys,
                       schema="strength")
        assert abs(doc["result"]["value"] - 2.1641) <= 1e-3

    def test_theta_and_alpha(self, capsys):
        doc = run_json(["theta", "paley", "--q", "17"], capsys, schema="theta")
        # serialized with 12 significant digits
        assert abs(doc["result"]["value"] - math.sqrt(17)) <= 1e-9
        doc = run_json(["alpha", "paley", "--q", "17"], capsys, schema="alpha")
        assert doc["result"]["alpha"] == 3
        doc = run_json(["alpha", "cycle", "--n", "7"], capsys, schema="alpha")
        assert doc["result"]["alpha"] == 3

    def test_bes(self, capsys):
        doc = run_json(["bes", "pyramid"], capsys, schema="bes")
        res = doc["result"]
        assert res["rank"] == 4
        assert res["ppt"] is True
        assert res["min_pt_eigenvalue"] >= -1e-9
        assert res["max_member_overlap"] <= 1e-12

    def test_lee_small(self, capsys):
        doc = run_json(["lee", "pyramid", "--restarts", "2", "--seed", "3"],
                       capsys, schema="lee")
        assert doc["result"]["value"] <= 0.08

    def test_equiv(self, capsys):
        doc = run_json(["equiv", "pyramid", "tiles-rep"], capsys,
                       schema="equiv")
        assert doc["result"]["equivalent"] is True
        doc = run_json(["equiv", "pyramid", "gencontextual:5"], capsys,
                       schema="equiv")
        assert doc["result"]["equivalent"] is True

    def test_table2_json_and_csv(self, capsys):
        doc = run_json(["table2"], capsys, schema="table2")
        assert len(doc["result"]["rows"]) == 6
        code, out = run_cli(["table2", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,theta,alpha,ratio"
        assert len(lines) == 7

    def test_table1_minimal_restarts(self, capsys):
        doc = run_json(["table1", "--restarts", "1"], capsys, schema="table1")
        rows = doc["result"]["rows"]
        assert [r["upb_type"] for r in rows] == ["Pyramid", "Tiles", "-",
                                                 "-", "-"]
        assert all(abs(r["strength"] - r["strength_ref"]) <= 1e-3
                   for r in rows)
        code, out = run_cli(["table1", "--restarts", "1", "--format", "csv"],
                            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("theta,upb_type,strength")

    def test_verify_from_file(self, capsys, tmp_path):
        code, out = run_cli(["family", "pyramid"], capsys)
        assert code == 0
        from ctxupb.families import pyramid
        from ctxupb.upb import assemble_mapped
        ps = assemble_mapped(pyramid(), (1, 2))
        path = tmp_path / "ps.json"
        path.write_text(jsonio.dumps(ps.to_json()))
        doc = run_json(["verify-upb", "--in", str(path)], capsys,
                       schema="upb_verdict")
        assert doc["result"]["status"] in ("UPB", "CertifiedUnextendible")

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run_cli(["theta", "cycle", "--n", "5", "--out",
                             str(path)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert abs(doc["result"]["value"] - math.sqrt(5)) <= 1e-12


# parameter values for every named target that takes parameters
TARGET_PARAMS = {"one-param": {"theta": "pi/3"}, "genpyramid": {"m": 4, "t": 3},
                 "genkcbs": {"n": 7}, "loor-complement": {"n": 7},
                 "quadres": {"p": 13}, "gencontextual": {"n": 7}}


def target_flags(name):
    return [name] + [x for k, v in TARGET_PARAMS.get(name, {}).items()
                     for x in (f"--{k}", str(v))]


class TestNamedTargets:
    @pytest.mark.parametrize("name", cli.FAMILY_NAMES)
    def test_family_names_run_everywhere(self, capsys, name):
        assert set(cli.TARGETS[name][0]) == set(TARGET_PARAMS.get(name, {}))
        for command, schema in (("family", "vector_family"),
                                ("graph", "graph"), ("strength", "strength")):
            run_json([command, *target_flags(name)], capsys, schema=schema)

    @pytest.mark.parametrize("name", cli.UPB_NAMES)
    def test_upb_token_matches_file(self, capsys, tmp_path, name):
        params = TARGET_PARAMS.get(name, {})
        assert set(cli.TARGETS[name][0]) == set(params)
        token = ":".join([name, ",".join(map(str, params.values()))]) \
            if params else name
        path = tmp_path / "set.json"
        path.write_text(jsonio.dumps(cli.build_upb(name, **params).to_json()))
        doc = run_json(["equiv", token, str(path)], capsys, schema="equiv")
        assert doc["result"]["equivalent"] is True

    def test_name_sets_and_order(self):
        assert cli.FAMILY_NAMES == ("one-param", "pyramid", "kcbs",
                                    "tiles-rep", "genpyramid", "genkcbs",
                                    "loor-complement", "quadres")
        assert cli.UPB_NAMES == ("one-param", "pyramid", "kcbs", "tiles-rep",
                                 "genpyramid", "quadres", "gencontextual")

    def test_pretty_nested_block(self, capsys):
        code, out = run_cli(["verify-upb", "pyramid", "--format", "pretty"],
                            capsys)
        assert code == 0
        lines = out.split("\n")
        block = lines.index("  colored_graph:")
        assert lines[block + 1:block + 4] == ["    n: 5", "    edges:",
                                              "      -"]
        assert "  minimal: True" in lines


def test_auto_fallback_checks_condition1_once(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = upb.party_graphs
    monkeypatch.setattr(upb, "party_graphs", counting)
    doc = run_json(["verify-upb", "genpyramid", "--m", "4", "--t", "3",
                    "--method", "auto"], capsys, schema="upb_verdict")
    assert doc["result"]["status"] == "Extendible"
    assert len(calls) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        a = run_cli(["verify-upb", "gencontextual", "--n", "7"], capsys)[1]
        b = run_cli(["verify-upb", "gencontextual", "--n", "7"], capsys)[1]
        assert a == b
        a = run_cli(["table2"], capsys)[1]
        b = run_cli(["table2"], capsys)[1]
        assert a == b

    def test_lee_seeded_byte_identical(self, capsys):
        args = ["lee", "pyramid", "--restarts", "2", "--seed", "5"]
        a = run_cli(args, capsys)[1]
        b = run_cli(args, capsys)[1]
        assert a == b

    def test_float_format_12_digits(self):
        assert jsonio.format_float(math.sqrt(5)) == "2.2360679775"
        assert jsonio.format_float(-0.0) == "0"
        assert jsonio.format_float(0.07295) == "0.07295"

    def test_numpy_integer_like_int(self):
        for x in (np.int8(-7), np.int64(2 ** 40), np.uint16(5)):
            assert jsonio.dumps([x, {"k": x}]) == jsonio.dumps(
                [int(x), {"k": int(x)}])

    def test_numpy_bool_like_bool(self):
        assert jsonio.dumps([np.True_, {"k": np.False_}]) == jsonio.dumps(
            [True, {"k": False}]) == '[true,{"k":false}]'

    def test_numpy_floating_like_float(self):
        for x in (np.float64(math.pi), np.float32(0.1), np.float16(-0.0),
                  np.longdouble(1) / 3):
            assert jsonio.dumps([x, {"k": x}]) == jsonio.dumps(
                [float(x), {"k": float(x)}])
        with pytest.raises(ValueError):
            jsonio.dumps(np.float32("nan"))


class TestErrors:
    def test_domain_error_exit_1_names_condition(self, capsys):
        code, out = run_cli(["verify-upb", "genpyramid", "--m", "7",
                             "--t", "4"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "NotOrthogonalSet"
        assert doc["details"]["condition"] == 1
        assert doc["details"]["pair"] == [0, 3]

    def test_inconclusive_over_budget_exit_1(self, capsys, tmp_path):
        # complete product basis of five qubits: the certificate does not
        # close and the search cannot finish inside its node budget
        path = tmp_path / "qubits5.json"
        path.write_text(jsonio.dumps(qubit_basis(5).to_json()))
        code, out = run_cli(["verify-upb", "--in", str(path),
                             "--method", "auto"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "Inconclusive"
        assert doc["details"]["nodes"] == doc["details"]["budget"] \
            == upb.SEARCH_BUDGET

    @pytest.mark.parametrize("command", ["verify-upb", "bes", "lee"])
    @pytest.mark.parametrize("text,message", [
        ('{"party_dims": [2, 2], "states": '
         '[[[[NaN, 0], [0, 0]], [[1, 0], [0, 0]]]]}',
         "local factor not unit norm"),
        ('{"party_dims": [0, 3], "states": []}', "party dimension below 1"),
    ], ids=["nan-factor", "zero-party-dimension"])
    def test_invalid_product_set_exit_1(self, capsys, tmp_path, command,
                                        text, message):
        path = tmp_path / "set.json"
        path.write_text(text)
        code, out = run_cli([command, "--in", str(path)], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "DimensionMismatch"
        assert doc["message"] == message

    @pytest.mark.parametrize("argv", [
        ["lee", "pyramid", "--restarts", "2", "--L", "0"],
        ["table1", "--restarts", "1", "--L", "0"],
    ], ids=["lee", "table1"])
    def test_zero_decomposition_size_exit_1(self, capsys, argv):
        code, out = run_cli(argv, capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "BadSize"
        assert doc["details"]["L"] == 0

    def test_usage_error_exit_2(self, capsys):
        code = cli.run(["family", "one-param"])  # missing --theta
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-upb", "--in", "{tmp}/missing.json"],
        ["equiv", "pyramid", "{tmp}/nothere.json"],
        ["verify-upb", "--in", "{tmp}/malformed.json"],
        ["alpha", "--in", "{tmp}/wrong_kind.json"],
        ["lee", "pyramid", "--restarts", "0"],
        ["verify-upb", "pyramid", "--tol", "-1"],
        ["verify-upb", "one-param", "--theta", "acos(2)"],
        ["bes", "genpyramid", "--m", "3", "--t", "2"],
        ["lee", "genpyramid", "--m", "3", "--t", "2", "--restarts", "2"],
        ["lee", "pyramid", "--seed", "-1", "--restarts", "2", "--L", "5"],
        ["table1", "--seed", "-1", "--restarts", "2"],
        ["alpha", "--in", "{tmp}/fractional_endpoint.json"],
        ["alpha", "--in", "{tmp}/negative_order.json"],
        ["equiv", "quadres:x", "pyramid"],
        ["equiv", "genpyramid:a,b", "pyramid"],
        ["equiv", "gencontextual:1.5", "pyramid"],
        ["equiv", "quadres:13,99", "pyramid"],
        ["equiv", "pyramid", "one-param:pi/3,x"],
    ], ids=["missing-in", "missing-equiv-operand", "malformed-json",
            "wrong-kind-json", "zero-restarts", "negative-tol",
            "angle-outside-domain", "three-party-bes", "three-party-lee",
            "negative-lee-seed",
            "negative-table1-seed", "fractional-edge-endpoint",
            "negative-graph-order", "non-integer-quadres-token",
            "non-integer-genpyramid-token",
            "non-integer-gencontextual-token", "surplus-quadres-token",
            "surplus-one-param-token"])
    def test_bad_input_usage_error(self, capsys, tmp_path, argv):
        (tmp_path / "malformed.json").write_text('{"party_dims": [3, 3')
        (tmp_path / "wrong_kind.json").write_text('{"party_dims": [3, 3]}')
        (tmp_path / "fractional_endpoint.json").write_text(
            '{"n": 3, "edges": [[0, 1.5]]}')
        (tmp_path / "negative_order.json").write_text('{"n": -1, "edges": []}')
        code = cli.run([x.format(tmp=tmp_path) for x in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    def test_unknown_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["family", "nonsense"])
        assert exc.value.code == 2

    def test_csv_unsupported_exit_2(self, capsys):
        code = cli.run(["theta", "cycle", "--n", "5", "--format", "csv"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-upb", "genpyramid", "--m", "7", "--t", "4"],
        ["lee", "pyramid"],
    ], ids=["verify-upb-not-orthogonal", "lee"])
    def test_csv_rejected_before_running(self, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("command ran")

        monkeypatch.setattr(upb, "verify_upb", fail)
        code = cli.run(argv + ["--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("usage error: csv output is not defined for "
                                "this command\n")

    def test_degenerate_theta_domain_error(self, capsys):
        code, out = run_cli(["family", "one-param", "--theta", "0"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "DegenerateParameter"


class TestCsvFormats:
    def test_family_csv_layout(self, capsys):
        code, out = run_cli(["family", "pyramid", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re0,im0,re1,im1,re2,im2"
        assert len(lines) == 6

    def test_graph_csv(self, capsys):
        code, out = run_cli(["graph", "kcbs", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j"
        assert lines[1] == "0,1"

    def test_pretty_format_runs(self, capsys):
        code, out = run_cli(["theta", "cycle", "--n", "5", "--format",
                             "pretty"], capsys)
        assert code == 0
        assert "value" in out
