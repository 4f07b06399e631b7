import dataclasses
import json
import math
import types

import pytest

from kaon_eraser import ParamsError, PhysicsParams, load_params
from kaon_eraser.decay import _mode_cells, amplitudes


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


def test_integer_past_the_digit_limit_reports_path(tmp_path):
    # Python's integer-string limit (4300 digits) refuses it inside json.loads
    path = tmp_path / "big.json"
    path.write_text('{"delta_m": 1' + "0" * 5000 + "}")
    with pytest.raises(ParamsError) as err:
        load_params(path)
    assert str(err.value).startswith(f"{path}: not valid JSON: ")


@pytest.mark.parametrize("source, named", [
    ({1: 0.5}, "unknown key(s): 1; "),
    ({1: 0.5, "gamma_x": 1.0}, "unknown key(s): 1, gamma_x; "),
])
def test_a_key_that_is_no_string_is_named(source, named):
    with pytest.raises(ParamsError) as err:
        load_params(source)
    assert str(err.value).startswith(named)


def test_file_that_is_not_utf8_reports_path(tmp_path):
    # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"delta_m": 0.5}')
    with pytest.raises(ParamsError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: not UTF-8 text: invalid start byte"


@pytest.mark.parametrize("fields, message", [
    ({"delta_m": math.nan}, "key 'delta_m': value must be finite, got nan"),
    ({"gamma_l": 0.0}, "gamma_l must be > 0"),
    ({"lifetime_window": 0.0}, "lifetime_window must be > 0"),
    ({"br_l_3pi": -0.1}, "branching fractions of K_L must be >= 0"),
    ({"delta_m": 10**400}, "key 'delta_m': value is too large for a float"),
])
def test_out_of_range_field_is_refused(fields, message):
    with pytest.raises(ParamsError) as err:
        PhysicsParams(**fields)
    assert str(err.value) == message


def test_json_document_that_is_no_object_is_refused(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1.0, 0.5]")
    with pytest.raises(ParamsError) as err:
        load_params(path)
    assert str(err.value) == f"{path}: expected a flat JSON object"


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


def test_hash_is_the_field_tuple_hash_and_follows_replace(default_params):
    equal = PhysicsParams()
    assert equal is not default_params
    assert hash(equal) == hash(default_params) == hash(tuple(default_params.to_dict().values()))
    assert equal == default_params and not equal != default_params
    changed = dataclasses.replace(default_params, delta_m=0.5, lifetime_window=3.0)
    assert hash(changed) == hash(tuple(changed.to_dict().values())) != hash(default_params)
    assert changed == load_params({"delta_m": 0.5, "lifetime_window": 3.0})
    assert changed != default_params
    assert dataclasses.replace(changed, delta_m=0.47, lifetime_window=4.8) == default_params
    # the caches keyed on a parameter set find equal sets under one entry
    assert amplitudes(equal) is amplitudes(default_params)
    assert _mode_cells(load_params()) is _mode_cells(default_params)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PhysicsParams)])
def test_a_set_with_any_field_changed_compares_unequal(default_params, name):
    # one ulp up keeps every invariant of the defaults
    value = math.nextafter(getattr(default_params, name), math.inf)
    changed = dataclasses.replace(default_params, **{name: value})
    assert changed != default_params and not changed == default_params
    assert getattr(changed, name) == value
    assert changed == PhysicsParams(**{name: value})
    assert hash(changed) == hash(tuple(changed.to_dict().values()))
    default_params.delta_gamma  # cached on the instance, not carried over by replace
    assert changed.delta_gamma == changed.gamma_l - changed.gamma_s


def test_comparison_with_another_type_is_not_implemented(default_params):
    fields = tuple(default_params.to_dict().values())
    lookalike = types.SimpleNamespace(_key=fields, _hash=hash(fields))
    for other in (fields, lookalike, default_params.to_dict(), None, 1.0):
        assert default_params.__eq__(other) is NotImplemented
        assert default_params != other and not default_params == other
