import itertools
import json
import math
import os

import jsonschema
import numpy as np
import pytest

from ctxupb import cli, graphs, jsonio, upb
from ctxupb.expr import parse_angle
from ctxupb.families import one_param_family
from ctxupb.linalg import Tolerances

from conftest import qubit_basis, random_unitary, witness_overlap

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


def printed_witness(doc):
    """The witness factors of a verify-upb envelope as complex arrays."""
    return [np.array([complex(*z) for z in f])
            for f in doc["result"]["witness"]]


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

    @pytest.mark.parametrize("where, reason", [
        ("no/such/dir/x.json", "No such file or directory"),
        (".", "Is a directory")])
    def test_out_unwritable_usage_error(self, capsys, tmp_path, where, reason):
        path = tmp_path / where
        code = cli.run(["table2", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: cannot write {path}: {reason}\n"


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

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 2, 2), (9, 9, 2)])
    def test_float_array_like_nested_lists(self, shape):
        rng = np.random.default_rng(len(shape))
        special = [-0.0, 1e-300, 1e300, 3.0, -12.0, 2.0 ** 60]
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        a.reshape(-1)[:len(special)] = special[:a.size]
        assert jsonio.dumps(a) == jsonio.dumps(a.tolist())
        assert jsonio.dumps({"m": a}) == jsonio.dumps({"m": a.tolist()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(np.array([[1.0, bad]]))


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

    def test_inconclusive_over_budget_exit_1(self, capsys, tmp_path,
                                             monkeypatch):
        # complete product basis of five qubits: the certificate does not
        # close, and the flat search, which needs 30 nodes to decide the
        # set, cannot finish inside a node budget patched down to 10
        monkeypatch.setattr(upb, "SEARCH_BUDGET", 10)
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

    @pytest.mark.parametrize("argv", [["lee", "pyramid"], ["table1"]],
                             ids=["lee", "table1"])
    def test_unallocatable_array_exit_1(self, capsys, argv):
        # 10**15 decomposition vectors ask numpy for 3.55 EiB at once, which
        # it refuses without allocating anything
        code, out = run_cli(argv + ["--L", str(10 ** 15)], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "OutOfMemory"

    @pytest.mark.parametrize("tol", ["1"])
    def test_coarse_tol_leaves_no_complement_exit_1(self, capsys, tol):
        # so coarse a tolerance finds an extension, but no standard-basis
        # vector has a component above it in any subspace
        code, out = run_cli(["verify-upb", "--tol", tol, "pyramid"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc == {"error": "NotUpb", "details": {},
                       "message": "assigned span has no complement"}

    def test_coarse_tol_extension_within_tol(self, capsys):
        # at --tol 0.5 the flats cover the pyramid set, and the witness from
        # their null spaces is orthogonal to every member within 0.5
        doc = run_json(["verify-upb", "--tol", "0.5", "pyramid"], capsys,
                       schema="upb_verdict")
        assert doc["result"]["status"] == "Extendible"
        ps = cli.TARGETS["pyramid"][2]()
        assert witness_overlap(ps, printed_witness(doc)) <= 0.5

    def test_walk_budget_ends_coarse_quadres_exit_1(self, capsys):
        # at --tol 0.2 the Gram match refuses quadres 29 (2 tol >= c), and
        # the walk would visit about 1.45e8 nodes per party
        code, out = run_cli(["verify-upb", "quadres", "--p", "29",
                             "--tol", "0.2"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "TooLarge"
        assert doc["details"]["budget"] == upb.WALK_BUDGET
        assert doc["details"]["nodes"] > upb.WALK_BUDGET

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
        ["graph", "--tol", "inf", "pyramid"],
        ["family", "pyramid", "--tol", "nan"],
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
        ["family", "pyramid", "--n", "3"],
        ["family", "quadres", "--p", "5", "--theta", "pi/3"],
        ["verify-upb", "genpyramid", "--m", "2", "--t", "2", "--p", "5"],
        ["lee", "pyramid", "--theta", "pi/12", "--restarts", "1"],
        ["family", "kcbs", "--in", "{tmp}/kcbs.json"],
        ["verify-upb", "pyramid", "--in", "{tmp}/pyramid.json"],
        ["verify-upb", "--in", "{tmp}/pyramid.json", "--n", "3"],
        ["graph", "--in", "{tmp}/kcbs.json", "--theta", "pi/3"],
        ["alpha", "cycle", "--n", "5", "--q", "13"],
        ["theta", "cycle", "--n", "5", "--q", "13"],
        ["theta", "paley", "--q", "13", "--n", "5"],
        ["alpha", "--in", "{tmp}/graph.json", "cycle", "--n", "5"],
        ["alpha", "--in", "{tmp}/graph.json", "--n", "5"],
    ], ids=["missing-in", "missing-equiv-operand", "malformed-json",
            "wrong-kind-json", "zero-restarts", "negative-tol",
            "infinite-tol", "nan-tol",
            "angle-outside-domain", "three-party-bes", "three-party-lee",
            "negative-lee-seed",
            "negative-table1-seed", "fractional-edge-endpoint",
            "negative-graph-order", "non-integer-quadres-token",
            "non-integer-genpyramid-token",
            "non-integer-gencontextual-token", "surplus-quadres-token",
            "surplus-one-param-token", "surplus-pyramid-flag",
            "surplus-quadres-flag", "surplus-genpyramid-flag",
            "surplus-lee-flag", "family-name-with-in",
            "upb-name-with-in", "upb-flag-with-in", "family-flag-with-in",
            "surplus-alpha-flag", "surplus-theta-flag",
            "surplus-theta-paley-flag", "graph-family-with-in",
            "graph-flag-with-in"])
    def test_bad_input_usage_error(self, capsys, tmp_path, argv):
        (tmp_path / "kcbs.json").write_text(
            jsonio.dumps(cli.build_family("kcbs").to_json()))
        (tmp_path / "pyramid.json").write_text(
            jsonio.dumps(cli.build_upb("pyramid").to_json()))
        (tmp_path / "malformed.json").write_text('{"party_dims": [3, 3')
        (tmp_path / "wrong_kind.json").write_text('{"party_dims": [3, 3]}')
        (tmp_path / "fractional_endpoint.json").write_text(
            '{"n": 3, "edges": [[0, 1.5]]}')
        (tmp_path / "negative_order.json").write_text('{"n": -1, "edges": []}')
        (tmp_path / "graph.json").write_text('{"n": 5, "edges": [[0, 1]]}')
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

    @pytest.mark.parametrize("m,t", [(3, 2), (4, 3), (7, 4)],
                             ids=["upb", "extendible", "not-orthogonal"])
    def test_lee_refuses_multipartite_before_verifying(self, capsys,
                                                       monkeypatch, m, t):
        def fail(*args, **kwargs):
            raise AssertionError("set was verified")

        monkeypatch.setattr(upb, "verify_upb", fail)
        code = cli.run(["lee", "genpyramid", "--m", str(m), "--t", str(t)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: lee needs a bipartite UPB\n"

    @pytest.mark.parametrize("m,t,error", [(4, 3, "NotUpb"),
                                           (7, 4, "NotOrthogonalSet")])
    def test_bes_verifies_multipartite_first(self, capsys, m, t, error):
        code, out = run_cli(["bes", "genpyramid", "--m", str(m), "--t",
                             str(t)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == error

    def test_negative_paley_order_domain_error(self, capsys):
        code, out = run_cli(["alpha", "paley", "--q", "-3"], capsys)
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"] == "BadOrder"
        assert doc["details"] == {"q": -3}

    def test_degenerate_theta_domain_error(self, capsys):
        code, out = run_cli(["family", "one-param", "--theta", "0"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "DegenerateParameter"


# angles below about sqrt(atol) from 0 or pi, where a2 lies within atol of
# span(a1, a3): the flats cover the set, so it is extendible within atol
NEAR_DEGENERATE = ["0.00003", "pi-0.00001", "0.000001", "pi-0.000003"]


class TestNearDegenerateTheta:
    @pytest.mark.parametrize("method", ["auto", "exact"])
    @pytest.mark.parametrize("theta", NEAR_DEGENERATE)
    def test_extendible_with_checked_witness(self, capsys, theta, method):
        doc = run_json(["verify-upb", "one-param", "--theta", theta,
                        "--method", method], capsys, schema="upb_verdict")
        assert doc["result"]["status"] == "Extendible"
        ps = upb.one_param_upb(parse_angle(theta))
        assert witness_overlap(ps, printed_witness(doc)) <= 1e-9

    @pytest.mark.parametrize("command", ["bes", "lee"])
    @pytest.mark.parametrize("theta", NEAR_DEGENERATE[:2])
    def test_bes_and_lee_refuse_extendible(self, capsys, theta, command):
        code, out = run_cli([command, "one-param", "--theta", theta], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert (code, doc["error"], doc["details"]) == (
            1, "NotUpb", {"status": "Extendible"})

    def test_farther_angle_stays_certified(self, capsys):
        doc = run_json(["verify-upb", "one-param", "--theta", "0.0001"],
                       capsys, schema="upb_verdict")
        assert doc["result"]["status"] == "CertifiedUnextendible"
        assert doc["result"]["certificate"] == [2, 2]


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


INF_TOL_CALLS = (   # a valid call of each command, run with --tol inf
    ["family", "pyramid"], ["graph", "pyramid"], ["verify-upb", "pyramid"],
    ["strength", "pyramid"], ["theta", "cycle", "--n", "5"],
    ["alpha", "cycle", "--n", "5"], ["bes", "pyramid"], ["lee", "pyramid"],
    ["equiv", "pyramid", "kcbs"], ["table1"], ["table2"])
assert {call[0] for call in INF_TOL_CALLS} == set(cli.COMMANDS)


BAD_NUMBERS = ("1..2", ".", "1.2.3")
DEEP_ANGLES = ("(" * 2000 + "1" + ")" * 2000, "sqrt(" * 600 + "1" + ")" * 600)


def _argv_id(argv):
    """argv joined by "_", a token past 1,000 characters as its head and
    length."""
    return "_".join(t if len(t) <= 1000 else f"{t[:5]}x{len(t)}" for t in argv)


# alpha paley --q order -> the error it exits 1 with, or None if it answers:
# not 1 mod 4, not a prime power, and H on (269 - 5) / 4 = 66 and
# (10009 - 5) / 4 = 2501 vertices, refused before P_q is built
PALEY_SWEEP = {3: "BadOrder", 21: "BadOrder", 73: None, 197: None,
               269: "TooLarge", 10009: "TooLarge"}
PALEY_ANSWERS = [["alpha", "paley", "--q", str(q)]
                 for q, error in PALEY_SWEEP.items() if error is None]


def _sweep_cases():
    """Each integer parameter of each named target, and alpha/theta graph
    orders, set to -3, 0, 1 and 2 (other parameters at their smallest
    valid values); the one all-valid genpyramid call is left out. Then
    alpha paley at the orders of PALEY_SWEEP, each one-param command with
    an angle that overflows to inf or NaN, and every command with --tol
    inf."""
    valid = {"m": 2, "t": 2}
    for name, (params, *builders) in cli.TARGETS.items():
        commands = [c for c, b in zip(("family", "verify-upb"), builders) if b]
        for key in (k for k in params if k != "theta"):
            for v in (-3, 0, 1, 2):
                values = {**valid, key: v}
                if all(values[k] == valid.get(k) for k in params):
                    continue
                flags = [x for k in params for x in (f"--{k}", str(values[k]))]
                yield from ([c, name, *flags] for c in commands)
    for command in ("alpha", "theta"):
        for family, flag in (("cycle", "--n"), ("paley", "--q")):
            for v in (-3, 0, 1, 2):
                yield [command, family, flag, str(v)]
    for q in PALEY_SWEEP:
        yield ["alpha", "paley", "--q", str(q)]
    big = "9" * 400
    for theta in (big, f"{big}-{big}", *BAD_NUMBERS, *DEEP_ANGLES):
        for command in ("family", "verify-upb", "strength", "lee"):
            yield [command, "one-param", "--theta", theta]
    for call in INF_TOL_CALLS:
        yield [*call, "--tol", "inf"]


def _exit_code(capsys, argv):
    """The exit code of argv, asserted to be 0 with a valid envelope, 1 with
    a valid error object or 2 with a usage message."""
    try:
        code = cli.run(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 0:
        jsonschema.validate(json.loads(captured.out), load_schema("envelope"))
    elif code == 1:
        jsonschema.validate(json.loads(captured.out), load_schema("error"))
    else:
        assert captured.err.startswith(("usage error:", "usage: ctxupb"))
    return code


@pytest.mark.parametrize("argv", list(_sweep_cases()), ids=_argv_id)
def test_small_parameters_never_raise(capsys, argv):
    assert _exit_code(capsys, argv) in ((0,) if argv in PALEY_ANSWERS
                                        else (1, 2))


@pytest.mark.parametrize("q", sorted(PALEY_SWEEP))
def test_paley_sweep_errors(capsys, q):
    code, out = run_cli(["alpha", "paley", "--q", str(q)], capsys)
    doc = json.loads(out)
    assert (code, doc.get("error")) == (1 if PALEY_SWEEP[q] else 0,
                                        PALEY_SWEEP[q])


def _factor(*xs):
    return [[x, 0.0] for x in xs]


_H = 1 / math.sqrt(2)
BIG_INT = "9" * 400   # too large for a float
EDGE_SETS = {   # --in product sets at the edges of the input domain
    "complete-2x2": {"party_dims": [2, 2], "states": [
        [_factor(1, 0), _factor(1, 0)], [_factor(1, 0), _factor(0, 1)],
        [_factor(0, 1), _factor(_H, _H)], [_factor(0, 1), _factor(_H, -_H)]]},
    "no-states": {"party_dims": [2, 2], "states": []},
    "no-parties": {"party_dims": [], "states": []},
    "dims-1-2": {"party_dims": [1, 2], "states": [
        [_factor(1), _factor(1, 0)], [_factor(1), _factor(0, 1)]]},
    "dims-1-1": {"party_dims": [1, 1], "states": [[_factor(1), _factor(1)]]},
    "single-state": {"party_dims": [2, 3],
                     "states": [[_factor(1, 0), _factor(0, 1, 0)]]},
    "overflow": {"party_dims": [2, 2],
                 "states": [[_factor(1, 0), _factor(1e308, 1e308)]]},
    # written as JSON text: a 400-digit integer, and 1e400, which loads as inf
    "big-int-factor": '{"party_dims": [2, 2], "states": [[[[%s, 0], [0, 0]],'
                      ' [[1, 0], [0, 0]]]]}' % BIG_INT,
    "dims-1e400": '{"party_dims": [1e400, 2], "states": [[[[1, 0]],'
                  ' [[1, 0], [0, 0]]]]}',
    # dimensions that int() would truncate to [2, 1] and [2, 2]
    "dims-2.9-true": {"party_dims": [2.9, True],
                      "states": [[_factor(1, 0), _factor(1)]]},
    "dims-2.0": {"party_dims": [2.0, 2], "states": [
        [_factor(1, 0), _factor(1, 0)], [_factor(0, 1), _factor(0, 1)]]},
}
EDGE_COMMANDS = {"auto": ["verify-upb", "--method", "auto"],
                 "exact": ["verify-upb", "--method", "exact"],
                 "bes": ["bes"], "lee": ["lee"], "equiv": ["equiv"]}


def _write(path, doc):
    """path, holding doc as JSON, or doc itself when it is JSON text."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _edge_argv(tmp_path, name, command):
    path = _write(tmp_path / "set.json", EDGE_SETS[name])
    # equiv takes two product sets as operands, not --in
    operands = [path, path] if command == "equiv" else ["--in", path]
    return [*EDGE_COMMANDS[command], *operands]


@pytest.mark.parametrize("command", EDGE_COMMANDS)
@pytest.mark.parametrize("name", EDGE_SETS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_edge_product_sets_never_raise(capsys, tmp_path, name, command):
    _exit_code(capsys, _edge_argv(tmp_path, name, command))


@pytest.mark.parametrize("name,commands,error,detail", [
    ("complete-2x2", ["bes", "lee"], "NotUpb", {"status": "CompleteBasis"}),
    ("dims-1-1", ["bes", "lee"], "NotUpb", {"status": "CompleteBasis"}),
    ("dims-1-2", ["bes", "lee"], "NotUpb", {"status": "CompleteBasis"}),
    ("no-states", list(EDGE_COMMANDS), "EmptyFamily", {}),
    ("no-parties", list(EDGE_COMMANDS), "DimensionMismatch", {}),
], ids=["complete-2x2", "dims-1-1", "dims-1-2", "no-states", "no-parties"])
def test_edge_product_set_errors(capsys, tmp_path, name, commands, error,
                                 detail):
    for command in commands:
        code, out = run_cli(_edge_argv(tmp_path, name, command), capsys)
        doc = json.loads(out)
        assert (code, doc["error"], doc["details"]) == (1, error, detail), \
            command


@pytest.mark.parametrize("name", ["complete-2x2", "dims-1-2", "dims-1-1",
                                  "single-state"])
def test_edge_product_sets_equiv_to_themselves(capsys, tmp_path, name):
    doc = run_json(_edge_argv(tmp_path, name, "equiv"), capsys,
                   schema="equiv")
    k = len(EDGE_SETS[name]["states"])
    assert doc["result"]["permutation"] == list(range(k))


def _moved_copy(ps, seed):
    """ps with its states shuffled and a random unitary on each party."""
    rng = np.random.default_rng(seed)
    us = [random_unitary(rng, d) for d in ps.party_dims]
    return upb.ProductSet(ps.party_dims, tuple(
        tuple(u @ f for u, f in zip(us, ps.states[i]))
        for i in rng.permutation(ps.k)))


class TestEquivPastSixteenStates:
    @pytest.mark.parametrize("name,params", [
        ("quadres", {"p": 17}), ("quadres", {"p": 29}),
        ("gencontextual", {"n": 31})], ids=["quadres-17", "quadres-29",
                                             "gencontextual-31"])
    def test_moved_copy(self, capsys, tmp_path, name, params):
        token = f"{name}:{','.join(map(str, params.values()))}"
        ps = cli.build_upb(name, **params)
        moved = _moved_copy(ps, 5)
        path = tmp_path / "moved.json"
        path.write_text(jsonio.dumps(moved.to_json()))
        doc = run_json(["equiv", token, str(path)], capsys, schema="equiv")
        perm = doc["result"]["permutation"]
        assert sorted(perm) == list(range(ps.k))
        _, a = upb.party_graphs(ps)
        _, b = upb.party_graphs(moved)
        assert all(a.colorset(i, j) == b.colorset(perm[i], perm[j])
                   for i, j in itertools.combinations(range(ps.k), 2))

    def test_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "RELABEL_BUDGET", 3)
        code, out = run_cli(["equiv", "quadres:17", "quadres:17"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("error"))
        assert (code, doc["error"], doc["details"]) == \
            (1, "TooLarge", {"nodes": 3, "budget": 3})


def _family(label, *vectors):
    return {"label": label, "params": {}, "dim": 2,
            "vectors": [_factor(*v) for v in vectors]}


EDGE_FAMILIES = {   # --in families at the edges of the input domain
    "nan-entry": _family("nan", (math.nan, 0.0), (0.0, 1.0)),
    "overflow": _family("big", (1e308, 1e308), (0.0, 1.0)),
    "no-vectors": _family("empty"),
    "big-int-entry": '{"label": "big", "params": {}, "dim": 2, "vectors":'
                     ' [[[%s, 0], [0, 0]]]}' % BIG_INT,
    "dim-1e400": '{"label": "big", "params": {}, "dim": 1e400,'
                 ' "vectors": []}',
    "dim-minus-5": {"label": "x", "params": {}, "dim": -5, "vectors": []},
    "dim-0": {"label": "x", "params": {}, "dim": 0, "vectors": []},
    "dim-2.7": {**_family("frac", (1, 0), (0, 1)), "dim": 2.7},
    "dim-2.0": {**_family("frac", (1, 0), (0, 1)), "dim": 2.0},
    "label-list": {**_family("x", (1, 0), (0, 1)), "label": [1]},
    "params-list": {**_family("x", (1, 0), (0, 1)), "params": [[1, 2]]},
}


def _family_argv(tmp_path, name, command):
    return [command, "--in", _write(tmp_path / "family.json",
                                    EDGE_FAMILIES[name])]


@pytest.mark.parametrize("command", ["family", "graph", "strength"])
@pytest.mark.parametrize("name", EDGE_FAMILIES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_edge_families_never_raise(capsys, tmp_path, name, command):
    _exit_code(capsys, _family_argv(tmp_path, name, command))


@pytest.mark.parametrize("name", ["big-int-factor", "dims-1e400"])
def test_overflowing_set_numbers_are_usage_errors(capsys, tmp_path, name):
    assert _exit_code(capsys, _edge_argv(tmp_path, name, "auto")) == 2


@pytest.mark.parametrize("name", ["big-int-entry", "dim-1e400"])
def test_overflowing_family_numbers_are_usage_errors(capsys, tmp_path, name):
    assert _exit_code(capsys, _family_argv(tmp_path, name, "family")) == 2


@pytest.mark.parametrize("name", ["dims-2.9-true", "dims-2.0"])
@pytest.mark.parametrize("command", EDGE_COMMANDS)
def test_non_integer_set_dims_are_usage_errors(capsys, tmp_path, name,
                                               command):
    argv = _edge_argv(tmp_path, name, command)
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "party dimensions must be integers" in captured.err


@pytest.mark.parametrize("name", ["dim-2.7", "dim-2.0"])
@pytest.mark.parametrize("command", ["family", "graph", "strength"])
def test_non_integer_family_dim_is_usage_error(capsys, tmp_path, name,
                                               command):
    assert cli.run(_family_argv(tmp_path, name, command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension must be an integer" in captured.err


@pytest.mark.parametrize("name", ["label-list", "params-list"])
@pytest.mark.parametrize("command", ["family", "graph", "strength"])
def test_non_string_label_or_list_params_is_usage_error(capsys, tmp_path,
                                                        name, command):
    assert cli.run(_family_argv(tmp_path, name, command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label must be a string and params an object" in captured.err


@pytest.mark.parametrize("name,dim", [("dim-minus-5", -5), ("dim-0", 0)])
def test_family_dim_below_1_errors(capsys, tmp_path, name, dim):
    for command in ("family", "graph", "strength"):
        code, out = run_cli(_family_argv(tmp_path, name, command), capsys)
        doc = json.loads(out)
        assert (code, doc["error"], doc["details"]) == (
            1, "DimensionMismatch", {"dim": dim}), command


@pytest.mark.parametrize("name", ["nan-entry", "overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_family_vector_errors(capsys, tmp_path, name):
    for command in ("family", "graph", "strength"):
        code, out = run_cli(_family_argv(tmp_path, name, command), capsys)
        doc = json.loads(out)
        assert (code, doc["error"], doc["details"]) == (
            1, "DegenerateParameter", {"index": 0}), command


def test_graph_of_empty_family(capsys, tmp_path):
    doc = run_json(_family_argv(tmp_path, "no-vectors", "graph"), capsys,
                   schema="graph")
    assert doc["result"] == {"n": 0, "edges": []}


@pytest.mark.parametrize("dim", [2, 10 ** 12])
def test_csv_of_empty_family_errors(capsys, tmp_path, dim):
    # exits before the header, one re,im pair per dimension, is built
    argv = ["family", "--in", _write(tmp_path / "family.json",
                                     {**_family("empty"), "dim": dim}),
            "--format", "csv"]
    code, out = run_cli(argv, capsys)
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("error"))
    assert (code, doc) == (1, {"error": "EmptyFamily", "details": {"dim": dim},
                               "message": "family has no vectors"})


def test_json_of_empty_family_keeps_its_dim(capsys, tmp_path):
    path = _write(tmp_path / "family.json",
                  {**_family("empty"), "dim": 10 ** 12})
    doc = run_json(["family", "--in", path], capsys, schema="vector_family")
    assert doc["result"] == {"label": "empty", "params": {}, "dim": 10 ** 12,
                             "vectors": []}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tol_message(capsys, tol):
    assert cli.run(["verify-upb", "pyramid", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "usage error: --tol must be positive and finite\n")


def test_table1_passes_tol(capsys, monkeypatch):
    seen = []

    def spy(ps, tol, *args, **kwargs):
        seen.append(tol)
        return real(ps, tol, *args, **kwargs)

    real = upb.verify_upb
    monkeypatch.setattr(upb, "verify_upb", spy)
    doc = run_json(["table1", "--restarts", "1", "--L", "4", "--tol", "1e-6"],
                   capsys, schema="table1")
    assert doc["config"]["tol"] == 1e-6
    assert len(seen) == 5
    assert all(t == Tolerances(1e-6) for t in seen)


class Parsed(Exception):
    """Raised by a stand-in handler to hand back the parsed namespace."""


PARITY_CALLS = {   # command: a valid call
    "family": ["family", "pyramid"],
    "graph": ["graph", "kcbs", "--format", "csv"],
    "verify-upb": ["verify-upb", "gencontextual", "--n", "5", "--method",
                   "bound"],
    "strength": ["strength", "one-param", "--theta", "pi/3"],
    "theta": ["theta", "cycle", "--n", "5"],
    "alpha": ["alpha", "cycle", "--n", "7"],
    "bes": ["bes", "--in", "set.json"],
    "lee": ["lee", "pyramid", "--L", "5", "--seed", "3"],
    "equiv": ["equiv", "pyramid", "kcbs", "--tol", "1e-9"],
    "table1": ["table1", "--restarts", "2"],
    "table2": ["table2", "--out", "t.json"],
}
assert set(PARITY_CALLS) == set(cli.COMMANDS)


def _parity_cases():
    for command, call in PARITY_CALLS.items():
        for tag, argv in (
                ("valid", call), ("help", call + ["-h"]),
                ("unknown-flag", call + ["--bogus"]),
                ("surplus-positional", call + ["surplus"]),
                ("bad-choice", call + ["--format", "xml"]),
                ("missing-value", call + ["--format"]),
                ("double-dash", [command, "--", *call[1:]]),
                ("abbreviation", call + ["--form", "pretty"])):
            yield pytest.param(argv, id=f"{command}-{tag}")
    for tag, argv in (("no-argv", []), ("help", ["-h"]),
                      ("unknown-command", ["nonsense", "pyramid"])):
        yield pytest.param(argv, id=tag)


@pytest.mark.parametrize("argv", list(_parity_cases()))
def test_parse_matches_full_parser(capsys, monkeypatch, argv):
    """cli.run parses as make_parser().parse_args does: same exit code,
    same bytes on stdout and stderr, same namespace."""
    def record(a):
        raise Parsed(a)

    def reference(argv):
        raise Parsed(cli.make_parser().parse_args(argv))

    monkeypatch.setenv("COLUMNS", "80")
    for command, (_, text, arguments) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, command, (record, text, arguments))
    outcomes = []
    for parse in (cli.run, reference):
        try:
            parse(argv)
            outcome = None
        except Parsed as e:
            outcome = vars(e.args[0])
        except SystemExit as e:
            outcome = e.code
        captured = capsys.readouterr()
        outcomes.append((outcome, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("argv", [["alpha", "cycle", "--n", "7"],
                                  ["verify-upb", "pyramid"], ["table2"]])
def test_known_command_skips_full_parser(capsys, monkeypatch, argv):
    def fail():
        raise AssertionError("full parser built")

    monkeypatch.setattr(cli, "make_parser", fail)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["command"] == argv[0]
