import json

import numpy as np
import pytest

from numrad.catalog import LEMMAS, check_lemma
from numrad.cli import load_matrix, main
from numrad.harness import doc_to_matrix, matrix_to_doc, replay_failure

JORDAN = [[0, 1], [0, 0]]


def _write(tmp_path, name, mat):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_doc(np.asarray(mat, dtype=complex))))
    return str(path)


@pytest.fixture
def ident(tmp_path):
    return _write(tmp_path, "ident.json", np.eye(2))


@pytest.fixture
def jordan(tmp_path):
    return _write(tmp_path, "jordan.json", JORDAN)


# --------------------------------------------------------------------- eval

def test_eval_omega_text(capsys, jordan):
    assert main(["eval", "--q", "omega", "--in", jordan]) == 0
    out = capsys.readouterr().out
    assert "omega = 0.5" in out


def test_eval_multiple_quantities(capsys, jordan):
    rc = main(["eval", "--q", "omega", "--q", "norm", "--q", "specrad",
               "--in", jordan])
    assert rc == 0
    out = capsys.readouterr().out
    assert ":omega = 0.5" in out
    assert ":norm = 1" in out
    assert ":specrad = 0" in out


def test_eval_json_carries_theta(capsys, jordan):
    assert main(["eval", "--q", "omega", "--in", jordan, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc.values()
    assert entry["value"] == pytest.approx(0.5, abs=1e-9)
    assert 0.0 <= entry["theta"] < np.pi


def test_eval_matrix_outputs_roundtrip(capsys, jordan):
    rc = main(["eval", "--q", "abs", "--q", "polar", "--q", "aluthge",
               "--in", jordan, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    by_kind = {k.split(":")[-1]: v for k, v in doc.items()}
    np.testing.assert_allclose(doc_to_matrix(by_kind["abs"]),
                               np.diag([0.0, 1.0]), atol=1e-12)
    u = doc_to_matrix(by_kind["polar"]["unitary"])
    p = doc_to_matrix(by_kind["polar"]["positive"])
    np.testing.assert_allclose(u @ p, np.asarray(JORDAN, dtype=complex),
                               atol=1e-12)
    np.testing.assert_allclose(doc_to_matrix(by_kind["aluthge"]),
                               np.zeros((2, 2)), atol=1e-12)


def test_eval_mean_needs_two_inputs(capsys, tmp_path):
    a = _write(tmp_path, "a.json", np.diag([2.0, 2.0]))
    b = _write(tmp_path, "b.json", np.diag([6.0, 6.0]))
    rc = main(["eval", "--q", "mean", "--in", a, "--in", b,
               "--sigma", "harm", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc_to_matrix(doc["mean"]), 3.0 * np.eye(2),
                               atol=1e-12)
    assert main(["eval", "--q", "mean", "--in", a]) == 3


def test_eval_kantorovich(capsys, tmp_path):
    m = _write(tmp_path, "pd.json", np.diag([1.0, 4.0]))
    assert main(["eval", "--q", "kantorovich", "--in", m]) == 0
    out = capsys.readouterr().out
    assert f"= {25 / 16}" in out


def test_eval_hypothesis_violation_exits_four(capsys, tmp_path):
    # a 0x0 matrix has no spectrum to bound
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    assert main(["eval", "--q", "kantorovich", "--in", str(e)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("hypothesis not met: ") and len(err.splitlines()) == 1


def test_eval_unknown_quantity(ident):
    assert main(["eval", "--q", "determinant", "--in", ident]) == 3


def test_eval_parse_failures(tmp_path, ident):
    assert main(["eval", "--q", "omega", "--in", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--q", "omega", "--in", str(bad)]) == 2
    halfdoc = tmp_path / "half.json"
    halfdoc.write_text(json.dumps({"rows": 2, "cols": 2}))
    assert main(["eval", "--q", "omega", "--in", str(halfdoc)]) == 2


def test_short_matrix_entry_is_a_parse_error(tmp_path, ident):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[[1.0]]]}))
    assert main(["eval", "--q", "omega", "--in", str(short)]) == 2
    assert main(["check", "--bound", "B01", "--A", str(short)]) == 2


# -------------------------------------------------------------------- check

def test_check_bound_satisfied(capsys, jordan):
    rc = main(["check", "--bound", "B02", "--A", jordan])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slack" in out and "satisfied = True" in out


def test_check_bound_violated(tmp_path, ident):
    x = _write(tmp_path, "x.json", np.diag([2.0, 3.0]))
    rc = main(["check", "--bound", "B06", "--A", ident, "--B", ident,
               "--X", x, "--sigma", "harm"])
    assert rc == 1


def test_check_tol_override_can_accept(tmp_path, ident):
    x = _write(tmp_path, "x.json", np.diag([2.0, 3.0]))
    rc = main(["check", "--bound", "B06", "--A", ident, "--B", ident,
               "--X", x, "--sigma", "harm", "--tol", "1.0"])
    assert rc == 0


def test_check_hypothesis_exit(tmp_path, ident):
    xs = _write(tmp_path, "sing.json", np.diag([0.0, 1.0]))
    rc = main(["check", "--bound", "B06", "--A", ident, "--B", ident,
               "--X", xs])
    assert rc == 4


def test_check_b19_skips_large_spectral_radius(tmp_path, jordan):
    x2 = _write(tmp_path, "twoi.json", 2.0 * np.eye(2))
    rc = main(["check", "--bound", "B19", "--A", jordan, "--B", jordan,
               "--X", x2])
    assert rc == 4


def test_check_missing_operand_and_unknown_bound(ident):
    assert main(["check", "--bound", "B05", "--A", ident, "--B", ident]) == 3
    assert main(["check", "--bound", "B99", "--A", ident]) == 3


def test_check_offers_every_lemma_flag(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    for flag in {f for lem in LEMMAS.values() for f in lem.flags} | {"A", "B", "X"}:
        assert f"--{flag} {flag}" in out, flag


def test_check_without_parameters_reports_the_evaluator_defaults(capsys, tmp_path, ident):
    x = _write(tmp_path, "x.json", np.diag([2.0, 3.0]))
    assert main(["check", "--bound", "B06", "--A", ident, "--B", ident,
                 "--X", x, "--json"]) == 1
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["pair"], params["h"], params["sigma"]) == ("sqrt", "inv", "arith")


def test_check_json_report(capsys, jordan):
    rc = main(["check", "--bound", "B13", "--A", jordan, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_id"] == "B13"
    assert doc["lhs"] == pytest.approx(0.5, abs=1e-9)
    assert doc["satisfied"] is True


def test_check_lemma_l07(capsys, ident):
    rc = main(["check", "--bound", "L07", "--A", ident, "--B", ident,
               "--A2", ident, "--B2", ident, "--X", ident, "--Y", ident])
    assert rc == 0
    assert "lhs = 4.0" in capsys.readouterr().out


def test_check_lemma_l01_with_vectors(tmp_path, ident):
    e1 = _write(tmp_path, "e1.json", np.array([[1.0], [0.0]]))
    rc = main(["check", "--bound", "L01", "--A", ident, "--X", e1, "--Y", e1])
    assert rc == 0
    # a full matrix is not a vector
    rc = main(["check", "--bound", "L01", "--A", ident, "--X", ident,
               "--Y", e1])
    assert rc == 3
    # missing operand
    rc = main(["check", "--bound", "L01", "--A", ident, "--X", e1])
    assert rc == 3


def test_check_lemma_l02_with_isometry(tmp_path):
    a = _write(tmp_path, "a.json", np.diag([1.0, 2.0, 3.0]))
    b = _write(tmp_path, "b.json", np.diag([2.0, 1.0, 2.0]))
    v = _write(tmp_path, "v.json", np.array([[1.0, 0.0],
                                             [0.0, 1.0],
                                             [0.0, 0.0]]))
    rc = main(["check", "--bound", "L02", "--A", a, "--B", b, "--V", v,
               "--sigma", "geom", "--tau", "harm"])
    assert rc == 0
    # indefinite operand trips the hypothesis gate
    neg = _write(tmp_path, "neg.json", np.diag([1.0, -1.0, 1.0]))
    assert main(["check", "--bound", "L02", "--A", neg, "--B", b]) == 4


def test_check_lemma_l03_non_pd_exits_hypothesis(tmp_path):
    neg = _write(tmp_path, "neg.json", np.diag([1.0, -2.0]))
    assert main(["check", "--bound", "L03", "--A", neg]) == 4


def _lemma_operands(lid):
    """(flag, handler keyword, matrix) for each operand of a lemma."""
    rng = np.random.default_rng(83)

    def g(n=3):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def pd():
        q, _ = np.linalg.qr(g())
        return (q * rng.uniform(0.5, 4.0, 3)) @ q.conj().T

    def unit():
        v = g()[:, :1]
        return v / np.linalg.norm(v)

    pair = [("A", "a1", g()), ("B", "b1", g()), ("A2", "a2", g()),
            ("B2", "b2", g())]
    return {
        "L01": [("A", "a", g()), ("X", "x", unit()), ("Y", "y", unit())],
        "L02": [("A", "a", pd()), ("B", "b", pd()),
                ("V", "v", np.linalg.qr(rng.standard_normal((3, 2)))[0])],
        "L03": [("A", "a", pd())],
        "L04": [("A", "a", g())],
        "L05": [("A", "a", g()), ("B", "b", g(2))],
        "L06": pair,
        "L07": pair + [("X", "x", g()), ("Y", "y", g())],
        "L08": [("A", "a", np.diag([1.0, 2.0, 3.0])),
                ("B", "b", np.diag(rng.uniform(0.5, 2.0, 3))),
                ("X", "x", unit()), ("Y", "y", unit())],
        "L09": [("A", "p", pd()), ("B", "q", pd())],
    }[lid]


@pytest.mark.parametrize("lid", [f"L0{i}" for i in range(1, 10)])
def test_check_every_lemma_matches_check_lemma(capsys, tmp_path, lid):
    argv, kwargs = ["check", "--bound", lid, "--json"], {}
    for flag, kw, mat in _lemma_operands(lid):
        path = _write(tmp_path, f"{flag}.json", mat)
        argv += [f"--{flag}", path]
        kwargs[kw] = load_matrix(path)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    rep = check_lemma(lid, **kwargs)
    assert doc["bound_id"] == lid
    if lid == "L02":
        assert doc["min_eig_of_difference"] == rep.min_eig_of_difference
        assert doc["scale"] == rep.scale
    else:
        assert (doc["lhs"], doc["rhs"]) == (rep.lhs, rep.rhs)


def test_check_l04_on_empty_matrix(capsys, tmp_path):
    # a 0x0 operand has w = 0 and sup form 0, as L05 and B01 report
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    assert main(["check", "--bound", "L04", "--A", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"]
    assert doc["params"]["sup_form"] == 0.0


def test_check_non_finite_function_value_exits_precondition(tmp_path):
    # expm1 overflows on the spectrum of P = Q = [900]
    a = _write(tmp_path, "a.json", [[30.0]])
    x = _write(tmp_path, "x.json", [[1.0]])
    with np.errstate(over="ignore"):
        rc = main(["check", "--bound", "B09", "--h", "expm1",
                   "--A", a, "--B", a, "--X", x])
    assert rc == 3


def test_check_non_finite_scalar_value_exits_precondition(tmp_path):
    # h(w(A*B)) = expm1(900) overflows: a precondition error, not a verdict
    a = _write(tmp_path, "a.json", [[30.0]])
    with np.errstate(over="ignore"):
        rc = main(["check", "--bound", "B11", "--h", "expm1", "--A", a, "--B", a])
    assert rc == 3


def test_check_ignores_a_function_only_a_sibling_reads(tmp_path):
    # B11 and B09 overflow on expm1(900); B12 and B10 do not read h, so
    # they give their own verdict (both sides equal 900)
    a = _write(tmp_path, "a.json", [[30.0]])
    x = _write(tmp_path, "x.json", [[1.0]])
    assert main(["check", "--bound", "B12", "--h", "expm1",
                 "--A", a, "--B", a]) == 0
    assert main(["check", "--bound", "B10", "--h", "expm1",
                 "--A", a, "--B", a, "--X", x]) == 0


def test_check_operands_of_different_sizes_exit_precondition(tmp_path):
    a = _write(tmp_path, "a.json", np.eye(2))
    b = _write(tmp_path, "b.json", np.eye(3))
    assert main(["check", "--bound", "B14", "--A", a, "--B", b, "--X", a]) == 3
    # B01 reads A alone
    assert main(["check", "--bound", "B01", "--A", a, "--B", b]) == 0
    # A and B of one shape 2 x 3 map one space into another: w(B*A) reads
    # them; B06, like every bound, rejects A and B of different shapes
    wide = _write(tmp_path, "wide.json", [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])
    assert main(["check", "--bound", "B03", "--A", wide, "--B", wide]) == 0
    assert main(["check", "--bound", "B06", "--A", a, "--B", wide, "--X", a]) == 3


def test_check_a_sibling_overflow_does_not_fail_the_bound(tmp_path):
    # A*A overflows at ||A|| = 1e160: B02 reads it, B01 does not
    a = _write(tmp_path, "a.json", [[1e160, 0.0], [0.0, 1.0]])
    assert main(["check", "--bound", "B01", "--A", a]) == 0


def test_check_non_finite_intermediate_exits_precondition(capsys, tmp_path):
    # A*A + AA* (B02) and A*|X*|A (B05) overflow at A = X = [1e160]: a
    # one-line precondition error, exit 3, that names no finite operand
    a = _write(tmp_path, "a.json", [[1e160]])
    for args in (["--bound", "B02", "--A", a],
                 ["--bound", "B05", "--A", a, "--B", a, "--X", a]):
        assert main(["check", *args]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: a matrix formed from the operands overflowed to non-finite entries"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bound", ["B02", "B05", "B06", "B07", "B08", "B11",
                                   "B14", "B16a", "B18"])
def test_check_overflow_prints_the_error_alone(capsys, tmp_path, bound):
    # the formulas behind the staging boundary form the overflowing
    # matrices without a warning: the one-line error is all that prints
    a = _write(tmp_path, "a.json", [[1e160]])
    assert main(["check", "--bound", bound, "--A", a, "--B", a, "--X", a]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: a matrix formed from the operands overflowed to non-finite entries"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_l04_radius_overflow_is_a_precondition_error(capsys, tmp_path):
    # w(A) = 3.4e308 of a 2x2 of 1.7e308 exceeds the largest float
    a = _write(tmp_path, "a.json", np.full((2, 2), 1.7e308))
    assert main(["check", "--bound", "L04", "--A", a]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: L04: a side overflows to non-finite (lhs = nan, rhs = inf)"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_a_radius_above_the_float_range_is_a_precondition_error(capsys, tmp_path):
    # w(A) = 3.4e308 overflows to inf: B01's report rejects the side that
    # reads it, with its own message, and `eval` prints inf, neither with
    # a warning
    a = _write(tmp_path, "a.json", np.full((2, 2), 1.7e308))
    assert main(["check", "--bound", "B01", "--A", a]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: B01: a side overflows to non-finite (lhs = nan, rhs = inf)"]
    assert main(["eval", "--q", "omega", "--in", a]) == 0
    out, err = capsys.readouterr()
    assert out == f"{a}:omega = inf\n" and err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_json_writes_a_non_finite_value_as_null(capsys, tmp_path):
    # w(A) = 3.4e308 of a 2x2 of 1.7e308 is inf: strict JSON has null
    a = _write(tmp_path, "a.json", np.full((2, 2), 1.7e308))
    assert main(["eval", "--q", "omega", "--in", a, "--json"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc[f"{a}:omega"]["value"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e160, 1e-315])
def test_eval_kantorovich_out_of_the_float_range_is_a_precondition_error(
        capsys, tmp_path, value):
    # (M + m)^2 overflows at 1e160 and 4 m M is subnormal at 1e-315; in
    # both the constant is computed on m and M scaled by a power of two:
    # exactly 1, not an error.  A constant that itself leaves the float
    # range is the precondition error (exit 3)
    a = _write(tmp_path, "a.json", [[value]])
    code = main(["eval", "--q", "kantorovich", "--in", a])
    assert (code, *capsys.readouterr()) == (0, f"{a}:kantorovich = 1\n", "")
    wide = _write(tmp_path, "wide.json", np.diag([1e-300, 1e150]))
    assert main(["eval", "--q", "kantorovich", "--in", wide]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: the Kantorovich constant of m=1e-300, M=1e+150 leaves the float range"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bound", ["B06", "B08"])
def test_check_kantorovich_overflow_is_a_precondition_error(capsys, tmp_path, bound):
    # P = Q = [1e180] at A = B = X = [1e60]: (M + m)^2 overflows, but the
    # Kantorovich constant is exactly 1 (computed on m and M scaled by a
    # power of two), and both sides are finite: a verdict, not an error
    a = _write(tmp_path, "a.json", [[1e60]])
    assert main(["check", "--bound", bound, "--A", a, "--B", a, "--X", a]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "satisfied = True" in out.splitlines()
    assert "'k': 1.0" in out


def test_check_json_params_omit_keys_the_bound_does_not_read(capsys, tmp_path):
    a = _write(tmp_path, "a.json", [[1.0, 2.0], [0.0, 1.0]])
    assert main(["check", "--bound", "B13", "--h", "pow:2", "--A", a,
                 "--json"]) == 0
    assert "h" not in json.loads(capsys.readouterr().out)["params"]


def test_check_json_skipped_report_is_strict_json(capsys, tmp_path):
    neg = _write(tmp_path, "neg.json", np.diag([1.0, -1.0, 1.0]))
    assert main(["check", "--bound", "L02", "--A", neg, "--B", neg,
                 "--json"]) == 4

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["min_eig_of_difference"] is None
    assert doc["scale"] is None


# ----------------------------------------------------------------- campaign

def test_campaign_clean_bound(capsys, tmp_path):
    out = str(tmp_path / "run")
    rc = main(["campaign", "--bounds", "B01", "--trials", "2",
               "--seed", "5", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "total failures: 0" in text
    csv = (tmp_path / "run.csv").read_text()
    assert csv.startswith("bound_id,trial,dim,seed,lhs,rhs,slack,status\n")
    assert len(csv.strip().split("\n")) == 3
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["config"]["seed"] == 5
    assert doc["per_bound"]["B01"]["failed"] == 0


def test_campaign_exit_one_on_failures(tmp_path):
    rc = main(["campaign", "--bounds", "B06", "--trials", "4", "--seed", "42",
               "--out", str(tmp_path / "fail")])
    assert rc == 1
    doc = json.loads((tmp_path / "fail.json").read_text())
    assert doc["failures"]


def test_campaign_deterministic_output_files(capsys, tmp_path):
    args = ["campaign", "--bounds", "B02,B16", "--trials", "3", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    capsys.readouterr()


def test_campaign_seed_env_var(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("RADII_SEED", "9")
    assert main(["campaign", "--bounds", "B02", "--trials", "3",
                 "--out", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("RADII_SEED")
    assert main(["campaign", "--bounds", "B02", "--trials", "3", "--seed", "9",
                 "--out", str(tmp_path / "explicit")]) == 0
    assert (tmp_path / "env.csv").read_bytes() == \
        (tmp_path / "explicit.csv").read_bytes()
    capsys.readouterr()


def test_campaign_dims_flag_and_bad_bound(capsys, tmp_path):
    out = str(tmp_path / "d")
    rc = main(["campaign", "--bounds", "B01", "--trials", "2",
               "--dims", "3,4", "--seed", "1", "--out", out])
    assert rc == 0
    rows = (tmp_path / "d.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[2] for r in rows] == ["3", "4"]
    assert main(["campaign", "--bounds", "B99", "--trials", "1"]) == 3
    capsys.readouterr()


def test_campaign_with_info_rows(capsys, tmp_path):
    out = str(tmp_path / "i")
    main(["campaign", "--bounds", "B18", "--trials", "2", "--seed", "3",
          "--with-info", "--out", out])
    csv = (tmp_path / "i.csv").read_text()
    assert ",info\n" in csv
    capsys.readouterr()


def test_campaign_json_file_replays_every_failure(capsys, tmp_path):
    # the written report, read back, replays each failure to its slack
    out = str(tmp_path / "run")
    assert main(["campaign", "--bounds", "B06,B07,B08,B09,B10", "--trials", "24",
                 "--seed", "3", "--out", out]) == 1
    with open(out + ".json", encoding="utf-8") as fh:
        doc = json.loads(fh.read())
    assert len(doc["failures"]) == sum(s["failed"] for s in doc["per_bound"].values())
    assert doc["failures"]
    for rec in doc["failures"]:
        assert replay_failure(rec).slack.hex() == rec["slack"].hex()


# -------------------------------------------------------------------- repro

def test_repro_reports_deviations(capsys):
    rc = main(["repro"])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.count("DEVIATES") == 2
    assert out.count("  ok") == 3


def test_repro_json(capsys):
    rc = main(["repro", "--json"])
    assert rc == 1
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5
    assert {r["label"] for r in rows} == {
        "ex1.quarter_norm", "ex1.half_norm_product", "ex2.schwarz_bound",
        "ex2.block_bound", "ex2.omega_product",
    }
