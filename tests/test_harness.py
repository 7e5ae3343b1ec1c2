import json
import math
import warnings
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from numrad.errors import (
    IncompatibleBoundsError,
    InvalidSpecError,
)
from numrad.catalog import (
    FAMILIES,
    check_block,
    evaluate_bound,
    family_of,
    required_operands,
)
from numrad import harness
from numrad.harness import (
    U_GRID,
    CampaignConfig,
    CampaignReport,
    EnsembleSpec,
    doc_to_matrix,
    generate,
    matrix_to_doc,
    mix_seed,
    reference_examples,
    replay_failure,
    run_campaign,
    _draw,
    sharpness_compare,
)
from numrad.matrixcore import abs_op, op_norm
from numrad.radii import spectral_radius

EX2_A = np.array([[1, 2], [3, 0]], dtype=complex)
EX2_B = np.array([[3, 4], [1, 5]], dtype=complex)
EX2_X = np.array([[1, 2], [0, 1]], dtype=complex)


# -------------------------------------------------------------- ensembles

def test_generate_is_deterministic_per_spec():
    spec = EnsembleSpec("ginibre", 4, seed=123)
    assert_allclose(generate(spec), generate(spec))
    other = EnsembleSpec("ginibre", 4, seed=124)
    assert not np.allclose(generate(spec), generate(other))


def test_generate_positive_definite_pins_endpoints():
    m = generate(EnsembleSpec("positive-definite", 4, (1.0, 4.0), seed=11))
    w = np.linalg.eigvalsh(m)
    assert w[0] == pytest.approx(1.0, abs=1e-10)
    assert w[-1] == pytest.approx(4.0, abs=1e-10)
    assert np.all((w >= 1.0 - 1e-10) & (w <= 4.0 + 1e-10))
    # default spectrum is (1, 4)
    d = generate(EnsembleSpec("positive-definite", 3, seed=1))
    wd = np.linalg.eigvalsh(d)
    assert wd[0] == pytest.approx(1.0, abs=1e-10)
    assert wd[-1] == pytest.approx(4.0, abs=1e-10)
    # degenerate cases
    one = generate(EnsembleSpec("positive-definite", 1, (2.0, 5.0), seed=0))
    assert_allclose(one, [[2.0]])
    flat = generate(EnsembleSpec("positive-definite", 3, (2.0, 2.0), seed=0))
    assert_allclose(np.linalg.eigvalsh(flat), [2.0, 2.0, 2.0], atol=1e-12)


def test_generate_commuting_ensemble():
    # the campaigns' commuting draw: X commutes with |A*| on every trial;
    # even trials are clipped to norm <= 1, odd ones rescaled to a U_GRID
    # spectral radius
    cfg = CampaignConfig(trials=8, dims=(3, 4), seed=31)
    for t in range(cfg.trials):
        dim, seed, mats = _draw(cfg, ("a", "b", "x"), 7, t, commuting=True)
        a, x = mats["a"], mats["x"]
        assert a.shape == mats["b"].shape == x.shape == (dim, dim)
        assert seed == mix_seed(31, 7, t)
        aa = abs_op(a.conj().T)
        assert op_norm(aa @ x - x.conj().T @ aa) < 1e-10 * (1 + op_norm(aa))
        if t % 2 == 0:
            assert op_norm(x) <= 1.0 + 1e-12
        else:
            assert spectral_radius(x) == pytest.approx(
                U_GRID[(t // 2) % len(U_GRID)], rel=1e-12)
        # without the hypothesis, X is a Ginibre draw from the same seed
        plain = _draw(cfg, ("a", "b", "x"), 7, t, commuting=False)[2]
        assert np.array_equal(plain["a"], a)
        assert not np.allclose(plain["x"] @ aa, aa @ plain["x"].conj().T)


def test_generate_validation():
    for kind in ("cauchy", "hermitian", "unitary", "commuting-with-absA*"):
        with pytest.raises(InvalidSpecError):
            generate(EnsembleSpec(kind, 3, seed=0))
    with pytest.raises(InvalidSpecError):
        generate(EnsembleSpec("ginibre", 0, seed=0))
    with pytest.raises(InvalidSpecError):
        generate(EnsembleSpec("ginibre", 17, seed=0))
    with pytest.raises(InvalidSpecError):
        generate(EnsembleSpec("positive-definite", 3, (4.0, 1.0), seed=0))


def test_mix_seed_properties():
    assert mix_seed(42, 7, 0) == mix_seed(42, 7, 0)
    seen = {mix_seed(42, 7, t) for t in range(100)}
    assert len(seen) == 100
    assert mix_seed(42, 7, 0) != mix_seed(42, 8, 0)
    assert mix_seed(42, 7, 0) != mix_seed(43, 7, 0)
    assert all(0 <= s < 2 ** 64 for s in seen)


# ----------------------------------------------------------- matrix files

def test_matrix_doc_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    doc = matrix_to_doc(m)
    assert doc["rows"] == 3 and doc["cols"] == 2
    assert_allclose(doc_to_matrix(doc), m)
    # survives JSON text round-trip exactly (repr-level floats)
    again = doc_to_matrix(json.loads(json.dumps(doc)))
    assert np.array_equal(again, m)
    # bit for bit the entrywise complex(re, im), signed zeros included
    data = [[[1, -0.0], [0.1, 2 ** 60]], [[-3, 5e-324], [-0.0, 0]]]
    ref = np.array([[complex(float(re), float(im)) for re, im in row]
                    for row in data])
    got = doc_to_matrix({"rows": 2, "cols": 2, "data": data})
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    # empty matrices: 0x0 and 0xn store "data": [], nx0 stores n empty rows
    for shape in ((0, 0), (0, 3), (3, 0)):
        doc = json.loads(json.dumps(matrix_to_doc(np.zeros(shape))))
        back = doc_to_matrix(doc)
        assert back.shape == shape and back.dtype == np.complex128
    # the document is the entrywise [re, im] list, signed zeros and
    # subnormals included, and empty shapes too
    for mat in (m, m.T, got, np.zeros((0, 0)), np.zeros((0, 3)),
                np.zeros((3, 0))):
        ref = {"rows": mat.shape[0], "cols": mat.shape[1],
               "data": [[[float(v.real), float(v.imag)] for v in row]
                        for row in mat]}
        assert json.dumps(matrix_to_doc(mat)) == json.dumps(ref)


def test_doc_to_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 2, "cols": 2, "data": [[[1, 0]]]})
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 1, "cols": 1, "data": [[[math.nan, 0]]]})
    # every entry must be exactly one [re, im] pair
    for entry in ([1.0], [1, 2, 3], []):
        with pytest.raises(ValueError):
            doc_to_matrix({"rows": 1, "cols": 1, "data": [[entry]]})
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 1, "cols": 2, "data": [[[1, 0], [1]]]})
    # an empty document describes a 0x0 matrix only
    for rows, cols, data in ((1, 1, []), (2, 0, []), (0, 0, [[]])):
        with pytest.raises(ValueError):
            doc_to_matrix({"rows": rows, "cols": cols, "data": data})


# -------------------------------------------------------------- campaigns

def test_campaign_config_expands_aliases():
    cfg = CampaignConfig(bounds=("B06", "B16"), trials=1)
    assert cfg.bounds == ("B06", "B06p", "B16a", "B16b")
    cfg = CampaignConfig(bounds=("B16a", "B16"), trials=1)
    assert cfg.bounds == ("B16a", "B16b")


def test_campaign_config_validation():
    with pytest.raises(Exception):
        CampaignConfig(bounds=("B99",))
    with pytest.raises(InvalidSpecError):
        CampaignConfig(trials=0)
    with pytest.raises(InvalidSpecError):
        CampaignConfig(dims=())
    with pytest.raises(InvalidSpecError):
        CampaignConfig(dims=(0, 3))


def test_campaign_counts_add_up():
    cfg = CampaignConfig(bounds=("B01", "B14"), trials=6, dims=(2, 3), seed=5)
    rep = run_campaign(cfg)
    assert set(rep.per_bound) == {"B01", "B14"}
    for stats in rep.per_bound.values():
        assert stats["trials"] == 6
        assert stats["passed"] + stats["failed"] + stats["skipped"] == 6
    assert len(rep.rows) == 12
    assert rep.total_failed == 0
    dims = {r["dim"] for r in rep.rows}
    assert dims == {2, 3}


def test_campaign_verdict_counts_pinned():
    # the closest verdict of this run sits a full tolerance unit from
    # flipping, so any change to these counts is a change of verdict
    rep = run_campaign(CampaignConfig(trials=30, dims=(1, 2, 6), seed=7))
    expected = {bid: (30, 0, 0) for bid in rep.per_bound}
    expected.update({bid: (0, 30, 0) for bid in ("B06", "B06p", "B08")})
    expected.update({"B07": (0, 24, 6), "B09": (15, 15, 0),
                     "B10": (15, 15, 0)})
    got = {bid: (s["passed"], s["failed"], s["skipped"])
           for bid, s in rep.per_bound.items()}
    assert len(got) == 23
    assert got == expected


def test_campaign_is_byte_identical_across_runs():
    cfg = CampaignConfig(bounds=("B02", "B13", "B18"), trials=4, seed=99)
    r1 = run_campaign(cfg)
    r2 = run_campaign(cfg)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    r3 = run_campaign(CampaignConfig(bounds=("B02", "B13", "B18"), trials=4,
                                     seed=100))
    assert r1.to_csv() != r3.to_csv()


def test_campaign_csv_shape():
    cfg = CampaignConfig(bounds=("B01",), trials=2, seed=0)
    csv = run_campaign(cfg).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "bound_id,trial,dim,seed,lhs,rhs,slack,status"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "B01" and first[7] == "pass"
    # floats use shortest round-trip repr, no numpy types
    for tok in first[4:7]:
        assert repr(float(tok)) == tok


def test_campaign_records_replayable_failures():
    # the B06 family fails on most draws, giving a failure record to replay
    cfg = CampaignConfig(bounds=("B06",), trials=8, seed=42)
    rep = run_campaign(cfg)
    assert rep.failures, "expected violations from the mean-h family"
    rec = rep.failures[0]
    assert set(rec) == {"bound_id", "trial", "dim", "seed", "lhs", "rhs",
                        "slack", "params", "inputs"}
    # the record keeps exactly the parameters its family's grids vary
    assert set(rec["params"]) == set(family_of(rec["bound_id"]).grids)
    fresh = replay_failure(rec)
    assert fresh.slack == rec["slack"]  # bit-for-bit
    assert fresh.lhs == rec["lhs"]
    # records survive a JSON round-trip
    rec2 = json.loads(json.dumps(rec))
    assert replay_failure(rec2).slack == rec["slack"]
    # a key outside the family's grids (older B06 records kept "nu") is
    # not passed on
    rec3 = {**rec2, "params": {**rec2["params"], "nu": 0.25}}
    assert replay_failure(rec3).slack == rec["slack"]


def test_failure_record_is_its_row_plus_what_replays_it():
    cfg = CampaignConfig(bounds=("B06", "B07", "B08", "B09", "B10"), trials=24, seed=5)
    rep = run_campaign(cfg)
    rows = {(r["bound_id"], r["trial"]): r for r in rep.rows}
    assert len(rep.failures) == sum(r["status"] == "fail" for r in rep.rows) > 0
    for rec in rep.failures:
        row = rows[rec["bound_id"], rec["trial"]]
        assert row["status"] == "fail"
        assert {k: v for k, v in rec.items() if k not in ("params", "inputs")} \
            == {k: v for k, v in row.items() if k != "status"}
        assert set(rec) == set(row) - {"status"} | {"params", "inputs"}


@pytest.mark.parametrize("block, trials, dims", [
    pytest.param(None, 8, (1, 2, 3, 5, 16), id="None"),
    pytest.param(3, 8, (1, 2, 3, 5, 16), id="3"),
    # groups of 12: every grid point, skipped and passing members mixed
    pytest.param(None, 24, (2, 3), id="groups-of-12"),
])
def test_campaign_rows_equal_single_trial_evaluation(block, trials, dims, monkeypatch):
    # a campaign stages its trials in blocks, evaluates each family's
    # trials of one dimension as one stack, and takes all radii of one
    # size in a block from one stacked call; each row must equal its
    # trial evaluated alone, with one block or several
    if block is not None:
        monkeypatch.setattr(harness, "_STAGED_TRIALS", block)
    cfg = CampaignConfig(trials=trials, dims=dims, seed=13)
    rep = run_campaign(cfg, with_info=True)
    rows, info_rows = iter(rep.rows), iter(rep.info_rows)
    runs = [(fam, fam.name, fam.commuting_x, rows) for fam in FAMILIES]
    runs += [(fam, f"{fam.name}-unconstrained", False, info_rows)
             for fam in FAMILIES if fam.commuting_x]
    for fam, salt, commuting, out in runs:
        for t in range(cfg.trials):
            dim, seed, mats = _draw(cfg, fam.operands, zlib.crc32(salt.encode()),
                                    t, commuting)
            params = {k: grid[t % len(grid)] for k, grid in fam.grids.items()}
            for bid in fam.ids:
                alone = evaluate_bound(bid, **mats, **params)
                row = next(out)
                assert (row["bound_id"], row["trial"], row["dim"],
                        row["seed"]) == (bid, t, dim, seed)
                assert [row[k].hex() for k in ("lhs", "rhs", "slack")] == \
                    [alone.lhs.hex(), alone.rhs.hex(), alone.slack.hex()], bid
                assert row["status"] == ("info" if out is info_rows
                                         else alone.status())
    assert next(rows, None) is None and next(info_rows, None) is None
    assert len(rep.per_bound) == 23


def test_campaign_evaluates_no_member_a_gate_masked_out():
    # B06-B10 and B19 skip some members of a stack; a function with a
    # pole or a domain run on one of them would warn (division by zero,
    # overflow, invalid values), and every warning fails this test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_campaign(CampaignConfig(seed=42, trials=48), with_info=True)
    assert {r["status"] for r in rep.rows} == {"pass", "fail", "skip"}


def test_campaign_skip_rows_for_b19():
    # unscaled (even) alpha trials can exceed r(X) = 1 only if the draw
    # is not normalized; the commuting ensemble clips to norm <= 1, so
    # every B19 row must be pass or skip, never an r > 1 crash
    cfg = CampaignConfig(bounds=("B19",), trials=10, seed=3)
    rep = run_campaign(cfg)
    statuses = {r["status"] for r in rep.rows}
    assert statuses <= {"pass", "skip"}


def test_campaign_info_rows():
    cfg = CampaignConfig(bounds=("B18", "B01"), trials=3, seed=11)
    rep = run_campaign(cfg, with_info=True)
    assert rep.info_rows
    assert {r["bound_id"] for r in rep.info_rows} == {"B18"}
    assert all(r["status"] == "info" for r in rep.info_rows)
    # info rows ride along in the CSV but not in the stats
    assert "info" in rep.to_csv()
    assert rep.per_bound["B18"]["trials"] == 3


@pytest.mark.parametrize("cfg", [CampaignConfig(seed=42),
                                 CampaignConfig(trials=30, dims=(1, 2, 6), seed=7)],
                         ids=["seed42", "seed7"])
def test_to_json_matches_json_dumps(cfg):
    rep = run_campaign(cfg, with_info=True)
    doc = {"config": rep.config, "per_bound": rep.per_bound, "rows": rep.rows,
           "failures": rep.failures, "info_rows": rep.info_rows}
    text = rep.to_json()
    assert text == json.dumps(doc, sort_keys=True, allow_nan=True)
    assert "\n" not in text


def test_to_json_matches_json_dumps_on_edge_values():
    config = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "zero": -0.0, "tiny": 5e-324, "none": None, "list": [],
              "dict": {}, "flags": [True, False], "int": -(2 ** 70),
              "text": "\u00e9t\u00e9 \u03c9(A) \"q\"\n\U0001f600",
              "\u00fcber": [[1, [2.5, {}]], (), {"b": [], "a": None}],
              "np": np.float64(0.1)}
    # failure-shaped matrix documents, as matrix_to_doc writes them and not
    edges = [-0.0, 5e-324, 1.7976931348623157e308]
    mats = [{"rows": r, "cols": c,
             "data": [[[edges[(i + j) % 3], edges[(i + 2 * j + 1) % 3]]
                       for j in range(c)] for i in range(r)]}
            for r, c in [(1, 1), (2, 3), (3, 3), (16, 16)]]
    others = [[[[math.nan, 1.0]]], [[[1, 2.0]]], [[[1.0, math.inf]]],
              [[[1.0, 2.0]], []],
              [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], [[[1.0, 2.0, 3.0]]],
              [[(1.0, 2.0)]], [[[np.float64(1.0), 2.0]]], [], [[]]]
    mats += [{"rows": 1, "cols": 1, "data": d} for d in others]
    mats += [{"rows": 0, "cols": 0, "data": d} for d in ([], [[]])]
    failures = [{"bound_id": "B06", "trial": t, "inputs": {"A": m, "B": m}}
                for t, m in enumerate(mats)]
    rep = CampaignReport(config=config, rows=[{"z": 1, "a": [math.nan]}],
                         failures=failures)
    doc = {"config": config, "per_bound": {}, "rows": rep.rows,
           "failures": failures, "info_rows": []}
    text = rep.to_json()
    assert text == json.dumps(doc, sort_keys=True, allow_nan=True)
    # the text parses back to a document that is written the same way
    assert json.dumps(json.loads(text), sort_keys=True, allow_nan=True) == text


# ------------------------------------------------------ reference examples

def test_reference_examples_frozen_values():
    rows = reference_examples()
    assert [r.label for r in rows] == [
        "ex1.quarter_norm", "ex1.half_norm_product", "ex2.schwarz_bound",
        "ex2.block_bound", "ex2.omega_product",
    ]
    computed = {r.label: r.computed for r in rows}
    assert computed["ex1.quarter_norm"] == pytest.approx(
        7.543154382482431, abs=1e-9)
    assert computed["ex1.half_norm_product"] == pytest.approx(
        6.196174140169735, abs=1e-9)
    assert computed["ex2.schwarz_bound"] == pytest.approx(
        59.54072101501029, abs=1e-9)
    assert computed["ex2.block_bound"] == pytest.approx(
        51.525980492047765, abs=1e-9)
    assert computed["ex2.omega_product"] == pytest.approx(
        39.914607000811124, abs=1e-9)


def test_reference_examples_within_flags():
    # the first three published values reproduce; the block bound and
    # the product radius deviate from their printed references
    rows = reference_examples()
    assert [r.within for r in rows] == [True, True, True, False, False]
    by_label = {r.label: r for r in rows}
    assert by_label["ex2.block_bound"].abs_error > 1.0
    assert by_label["ex2.omega_product"].abs_error > 1.0


def test_reference_examples_ordering():
    # radius <= block refinement <= Schwarz bound on the fixed inputs
    c = {r.label: r.computed for r in reference_examples()}
    assert c["ex2.omega_product"] < c["ex2.block_bound"] < c["ex2.schwarz_bound"]


# ------------------------------------------------------------- sharpness

def test_sharpness_self_comparison_is_all_ties():
    rep = sharpness_compare("B05", "B05",
                            cfg=CampaignConfig(trials=5, seed=2))
    assert rep.wins_a == rep.wins_b == 0
    assert rep.ties == rep.evaluated == 5
    assert rep.mean_gap == pytest.approx(0.0, abs=1e-15)


def test_sharpness_on_fixed_inputs():
    rep = sharpness_compare("B14", "B05", inputs=(EX2_A, EX2_B, EX2_X))
    assert rep.trials == 1 and rep.skipped == 0
    assert rep.wins_a == 1
    assert rep.mean_gap == pytest.approx(8.014740522962525, abs=1e-9)
    assert rep.pairs[0][0] == pytest.approx(51.525980492047765, abs=1e-9)
    assert rep.pairs[0][1] == pytest.approx(59.54072101501029, abs=1e-9)


def test_sharpness_counts_a_failed_gate_as_skipped():
    # B = 0 makes P = 0, which fails B06's and B08's positive-definite gate
    rep = sharpness_compare("B06", "B08", inputs=(EX2_A, np.zeros((2, 2)), EX2_X))
    assert (rep.trials, rep.skipped, rep.evaluated) == (1, 1, 0)
    assert rep.pairs == () and math.isnan(rep.mean_gap)


def test_sharpness_counts_are_consistent():
    rep = sharpness_compare("B08", "B05",
                            cfg=CampaignConfig(trials=10, seed=4))
    assert rep.trials == 10
    assert rep.wins_a + rep.wins_b + rep.ties == rep.evaluated
    assert len(rep.pairs) == rep.evaluated


def test_sharpness_alpha_family_uses_commuting_draws():
    rep = sharpness_compare("B18", "B20",
                            cfg=CampaignConfig(trials=6, seed=8))
    # commuting draws keep the hypothesis, so nothing is skipped
    assert rep.skipped == 0


def test_campaigns_and_sharpness_share_one_sampler():
    cfg = CampaignConfig(bounds=("B14",), trials=4, dims=(2, 3), seed=6)
    rows = run_campaign(cfg).rows
    rep = sharpness_compare("B14", "B05", cfg)
    salt = zlib.crc32(b"sharpness:B14:B05")
    for t in range(cfg.trials):
        dim, seed, mats = _draw(cfg, ("a", "b", "x"), zlib.crc32(b"block"),
                                t, commuting=False)
        assert (rows[t]["dim"], rows[t]["seed"]) == (dim, seed)
        assert rows[t]["lhs"] == check_block(**mats).lhs
        mats = _draw(cfg, ("a", "b", "x"), salt, t, commuting=False)[2]
        assert rep.pairs[t] == (evaluate_bound("B14", **mats).rhs,
                                evaluate_bound("B05", **mats).rhs)


@pytest.mark.parametrize("bound_a, bound_b", [
    ("B08", "B05"), ("B06", "B08"), ("B18", "B20"), ("B03", "B04"), ("B13", "B15")])
def test_sharpness_equals_a_per_trial_loop(bound_a, bound_b):
    # a comparison evaluates each bound once per dimension on the stacked
    # draws; its pairs, counts and mean gap are those of evaluating every
    # trial alone, bit for bit, in trial order
    cfg = CampaignConfig(trials=14, dims=(1, 2, 3), seed=9)
    rep = sharpness_compare(bound_a, bound_b, cfg)
    salt = zlib.crc32(f"sharpness:{bound_a}:{bound_b}".encode())
    commuting = family_of(bound_a).commuting_x or family_of(bound_b).commuting_x
    pairs, skipped = [], 0
    for t in range(cfg.trials):
        mats = _draw(cfg, required_operands(bound_a), salt, t, commuting)[2]
        ra, rb = evaluate_bound(bound_a, **mats), evaluate_bound(bound_b, **mats)
        if ra.hypothesis_ok and rb.hypothesis_ok:
            pairs.append((ra.rhs, rb.rhs))
        else:
            skipped += 1
    assert (rep.trials, rep.skipped) == (cfg.trials, skipped)
    assert [(a.hex(), b.hex()) for a, b in rep.pairs] == \
        [(a.hex(), b.hex()) for a, b in pairs]
    gaps = [b - a for a, b in pairs]
    assert rep.mean_gap.hex() == (sum(gaps) / len(gaps)).hex()
    tol = [1e-12 * (1.0 + abs(b)) for _, b in pairs]
    assert (rep.wins_a, rep.wins_b, rep.ties) == (
        sum(g > e for g, e in zip(gaps, tol)), sum(g < -e for g, e in zip(gaps, tol)),
        sum(abs(g) <= e for g, e in zip(gaps, tol)))


def test_sharpness_rejects_wrong_input_count():
    with pytest.raises(InvalidSpecError):
        sharpness_compare("B14", "B05", inputs=(EX2_A, EX2_B, EX2_X, EX2_X))
    with pytest.raises(InvalidSpecError):
        sharpness_compare("B14", "B05", inputs=(EX2_A, EX2_B))


def test_sharpness_rejects_mismatched_signatures():
    with pytest.raises(IncompatibleBoundsError):
        sharpness_compare("B01", "B05")
