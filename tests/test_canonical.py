"""`canonical.dumps` is `json.dumps` with the canonical settings, byte for byte.

The module is loaded by its path as well as imported, so this file's
value-level tests also run on an interpreter that lacks the package's
dependencies:
`python -m pytest tests/test_canonical.py -k "not fixture and not credential"`
needs only pytest and Hypothesis.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_SPEC = importlib.util.spec_from_file_location(
    "canonical_by_path", Path(__file__).parents[1] / "src" / "xrwa" / "canonical.py"
)
canonical = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(canonical)


def _reference(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _same_as_reference(value):
    assert canonical.dumps(value) == _reference(value)
    assert canonical.dumps_bytes(value) == _reference(value).encode("utf-8")


_ODD_CHARS = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xa0\xe9\u2028\u2029\ufeff\U0001f600'
# lone surrogates have no UTF-8 form, so no canonical text holds one
_text = st.text(
    st.one_of(st.characters(exclude_categories=["Cs"]), st.sampled_from(_ODD_CHARS)), max_size=12
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
    _text,
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_text, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=200)
@given(_values)
def test_dumps_matches_json_dumps(value):
    _same_as_reference(value)


@pytest.mark.parametrize("value", [
    "", "é\u2028\"\\\x00", -0.0, math.nan, math.inf, -math.inf, 1e300, 2**100, -(2**64), True, None,
    {}, [], {"b": 1, "a": [1, {"d": None, "c": "ü"}]}, {"ü": 1, "u": 2, "\x00": 3, "Z": 4},
])
def test_dumps_matches_json_dumps_on_edge_values(value):
    _same_as_reference(value)


@pytest.mark.parametrize("value", [b"x", {1, 2}, {"a": [b"x"]}, [{"k": frozenset()}], bytearray(2)])
def test_unencodable_values_raise_type_error(value):
    with pytest.raises(TypeError) as ours:
        canonical.dumps(value)
    with pytest.raises(TypeError) as theirs:
        _reference(value)
    assert str(ours.value) == str(theirs.value)


def test_encoder_keeps_no_state_across_a_failed_call():
    value = {"a": [b"x"], "b": {"c": 1}}
    with pytest.raises(TypeError):
        canonical.dumps(value)
    value["a"][0] = "x"
    # the same containers encode at once: no ids are left behind by the failure
    _same_as_reference(value)


def test_fixture_items_match_json_dumps():
    from xrwa.fixtures import FIXTURE_TYPES, fixture_items

    for asset_type in FIXTURE_TYPES:
        _same_as_reference(fixture_items(asset_type))


def test_credential_to_json_matches_json_dumps():
    from xrwa.fixtures import issue_fixture_set

    for cred in issue_fixture_set().values():
        _same_as_reference(cred.to_json())
