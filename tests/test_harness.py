import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from numrad.errors import (
    IncompatibleBoundsError,
    InvalidSpecError,
    UnknownBoundIdError,
)
from numrad.harness import (
    CampaignConfig,
    EnsembleSpec,
    doc_to_matrix,
    generate,
    matrix_to_doc,
    mix_seed,
    reference_examples,
    replay_failure,
    run_campaign,
    sharpness_compare,
)
from numrad.matrixcore import abs_op, op_norm

EX2_A = np.array([[1, 2], [3, 0]], dtype=complex)
EX2_B = np.array([[3, 4], [1, 5]], dtype=complex)
EX2_X = np.array([[1, 2], [0, 1]], dtype=complex)


# -------------------------------------------------------------- ensembles

def test_generate_is_deterministic_per_spec():
    spec = EnsembleSpec("ginibre", 4, seed=123)
    assert_allclose(generate(spec), generate(spec))
    other = EnsembleSpec("ginibre", 4, seed=124)
    assert not np.allclose(generate(spec), generate(other))


def test_generate_hermitian():
    m = generate(EnsembleSpec("hermitian", 5, seed=7))
    assert np.linalg.norm(m - m.conj().T) < 1e-14


def test_generate_unitary():
    u = generate(EnsembleSpec("unitary", 5, seed=7))
    assert op_norm(u.conj().T @ u - np.eye(5)) < 1e-10


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
    rng_seed = 31
    a = generate(EnsembleSpec("ginibre", 4, seed=rng_seed))
    x = generate(EnsembleSpec("commuting-with-absA*", 4, seed=rng_seed + 1),
                 companion=a)
    aa = abs_op(a.conj().T)
    assert op_norm(aa @ x - x.conj().T @ aa) < 1e-10
    assert op_norm(x) <= 1.0 + 1e-12
    with pytest.raises(InvalidSpecError):
        generate(EnsembleSpec("commuting-with-absA*", 4, seed=0))


def test_generate_validation():
    with pytest.raises(InvalidSpecError):
        generate(EnsembleSpec("cauchy", 3, seed=0))
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


def test_doc_to_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 2, "cols": 2, "data": [[[1, 0]]]})
    with pytest.raises(ValueError):
        doc_to_matrix({"rows": 1, "cols": 1, "data": [[[math.nan, 0]]]})


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


def test_campaign_params_reject_unknown_bound():
    with pytest.raises(UnknownBoundIdError):
        CampaignConfig(params={"B99": {"p": 2.0}})


def test_campaign_params_reject_key_outside_family_grids():
    with pytest.raises(InvalidSpecError):
        CampaignConfig(params={"B03": {"P": 2.0}})
    with pytest.raises(InvalidSpecError):
        CampaignConfig(params={"B14": {"p": 2.0}})  # B14 takes no parameter


def test_campaign_params_reject_empty_list():
    with pytest.raises(InvalidSpecError):
        CampaignConfig(params={"B03": {"p": []}})


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
    fresh = replay_failure(rec)
    assert fresh.slack == rec["slack"]  # bit-for-bit
    assert fresh.lhs == rec["lhs"]
    # records survive a JSON round-trip
    rec2 = json.loads(json.dumps(rec))
    assert replay_failure(rec2).slack == rec["slack"]


def test_campaign_param_overrides_and_grids():
    cfg = CampaignConfig(bounds=("B03",), trials=3, seed=7,
                         params={"B03": {"p": 2.0}})
    rep = run_campaign(cfg)
    assert all(r["status"] == "pass" for r in rep.rows)
    cycled = CampaignConfig(bounds=("B03",), trials=4, seed=7,
                            params={"B03": {"p": [1.0, 3.0]}})
    rep = run_campaign(cycled)
    assert len(rep.rows) == 4


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


def test_sharpness_rejects_wrong_input_count():
    with pytest.raises(InvalidSpecError):
        sharpness_compare("B14", "B05", inputs=(EX2_A, EX2_B, EX2_X, EX2_X))
    with pytest.raises(InvalidSpecError):
        sharpness_compare("B14", "B05", inputs=(EX2_A, EX2_B))


def test_sharpness_rejects_mismatched_signatures():
    with pytest.raises(IncompatibleBoundsError):
        sharpness_compare("B01", "B05")
