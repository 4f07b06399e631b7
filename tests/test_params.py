import json

import pytest

from kaon_eraser import ParamsError, PhysicsParams, load_params


def test_empty_document_gives_defaults(tmp_path):
    path = tmp_path / "params.json"
    path.write_text("{}")
    p = load_params(path)
    assert p.gamma_s == 1.0
    assert p.gamma_l == pytest.approx(1.0 / 579.0, rel=0, abs=0)
    assert p.delta_m == 0.47
    assert p.lifetime_window == 4.8


def test_none_source_gives_defaults():
    assert load_params() == PhysicsParams()


def test_gamma_ordering_violation():
    with pytest.raises(ParamsError, match="gamma_s > gamma_l violated"):
        load_params({"gamma_l": 2.0})


def test_delta_m_zero_is_valid():
    p = load_params({"delta_m": 0.0})
    assert p.delta_m == 0.0


def test_negative_delta_m_rejected():
    with pytest.raises(ParamsError, match="delta_m"):
        load_params({"delta_m": -0.1})


def test_unknown_key_is_hard_error():
    with pytest.raises(ParamsError, match="unknown key.*gamma_x"):
        load_params({"gamma_x": 1.0})


def test_non_numeric_value_names_key():
    with pytest.raises(ParamsError, match="gamma_l"):
        load_params({"gamma_l": "fast"})


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParamsError, match="broken.json"):
        load_params(path)


def test_branching_budget_enforced():
    with pytest.raises(ParamsError, match="K_S"):
        PhysicsParams(br_s_2pi=1.0, br_semileptonic_s=0.01)


def test_default_branching_budgets_are_exact(default_params):
    assert default_params.br_s_2pi + default_params.br_semileptonic_s == pytest.approx(1.0, abs=1e-12)
    assert default_params.br_l_3pi + default_params.br_semileptonic_l == pytest.approx(1.0, abs=1e-12)
    assert default_params.br_s_other == 0.0
    assert default_params.br_l_other == 0.0


def test_delta_gamma_negative(default_params):
    assert default_params.delta_gamma == default_params.gamma_l - default_params.gamma_s
    assert default_params.delta_gamma < 0


def test_lambda_eigenvalues(default_params):
    assert default_params.lambda_s == complex(0.0, -0.5)
    lam_l = default_params.lambda_l
    assert lam_l.real == 0.47
    assert lam_l.imag == pytest.approx(-1.0 / 1158.0, abs=1e-18)


def test_near_degenerate_widths_give_near_equal_eigenvalues():
    p = PhysicsParams(
        gamma_s=1.0, gamma_l=1.0 - 1e-9, delta_m=0.0,
        br_s_2pi=0.0, br_l_3pi=0.0,
        br_semileptonic_s=1.0 - 1e-9, br_semileptonic_l=1.0,
    )
    assert abs(p.lambda_s - p.lambda_l) < 1e-9


def test_round_trip_serialization(tmp_path, default_params):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(default_params.to_dict()))
    again = load_params(path)
    assert again == default_params
    assert again.digest() == default_params.digest()


def test_digest_changes_with_params(default_params):
    other = load_params({"delta_m": 0.5})
    assert other.digest() != default_params.digest()
