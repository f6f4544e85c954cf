"""Property tests of the two file readers: whatever bytes a config file or a
checkpoint manifest holds, reading it either succeeds or raises the reader's
own error, which the command line reports as one `error:` line.

Besides arbitrary bytes, the strategies build inputs that get past the first
checks: deeply nested JSON, JSON values at the config's own keys, and
manifests of well-formed lines with arbitrary tags, shapes and offsets.

Two config inputs json reads without complaint must still be rejected, with
the field they hit named: a NaN or an infinity at any numeric field, and a
key written twice in one object at any nesting level.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv.config import ConfigValidationError, load_config, parse_experiment
from fedconv.reporting import CheckpointError, load_checkpoint

from test_config_cli import base_doc

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def config_with_one_field_replaced(draw):
    """The base config with one of its fields set to an arbitrary value."""
    doc = base_doc()
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node)))
        if not isinstance(node[key], dict) or draw(st.booleans()):
            break
        node = node[key]
    node[key] = draw(json_values)
    return json.dumps(doc).encode("utf-8")


config_bytes = (st.binary(max_size=64)
                | st.integers(1, 200_000).map(lambda n: b"[" * n)
                | json_values.map(lambda v: json.dumps(v).encode("utf-8"))
                | config_with_one_field_replaced())


@settings(max_examples=300)
@given(raw=config_bytes)
def test_load_config_returns_or_raises_its_own_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_bytes(raw)
    try:
        load_config(path)
    except ConfigValidationError:
        pass


# Valid configs that between them hold every numeric field: the fedprox, AGC
# and label-skew sections in the first, the other methods' parameters after.
FULL_DOCS = [
    base_doc(**{"target_accuracy": 50, "optimizer.weight_decay": 0.05,
                "optimizer.momentum": 0.9, "fl.clients_per_round": 1,
                "optimizer.agc": {"clipping": 0.01, "eps": 1e-3},
                "fl.method": {"name": "fedprox", "mu": 0.01},
                "data.partition": {"kind": "label_skew", "target_ks": 0.5,
                                   "tolerance": 0.05}}),
    base_doc(**{"fl.method": {"name": "fedyogi", "beta1": 0.9, "beta2": 0.99,
                              "tau": 1e-3, "eta_client": 0.02,
                              "eta_server": 0.01}}),
    base_doc(**{"fl.method": {"name": "share", "fraction": 0.1}}),
]


def _numeric_fields(node, path=()):
    """Paths of the numbers in a config document; a list element's path
    ends in its index."""
    for key, v in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(v, (dict, list)):
            yield from _numeric_fields(v, path + (key,))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield path + (key,)


NUMERIC_FIELDS = [(i, path) for i, doc in enumerate(FULL_DOCS)
                  for path in _numeric_fields(doc)]


def _load_text(tmp_path_factory, text: str) -> list[str]:
    """The errors `load_config` raises for a config file holding `text`."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigValidationError) as exc:
        load_config(path)
    return exc.value.errors


@pytest.mark.parametrize("doc", FULL_DOCS)
def test_full_docs_are_valid(doc):
    parse_experiment(doc)


@settings(max_examples=200)
@given(field=st.sampled_from(NUMERIC_FIELDS),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_non_finite_number_is_rejected_with_its_path(tmp_path_factory, field,
                                                     value):
    i, path = field
    doc = copy.deepcopy(FULL_DOCS[i])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    errors = _load_text(tmp_path_factory, json.dumps(doc))
    name = ".".join(k for k in path if isinstance(k, str))
    assert any(e.startswith(f"{name}: ") for e in errors), errors


# json.dumps writes each key of a dict once, so the repeat is written under
# this placeholder and renamed in the text.
_REPEAT = "\x00repeat"


@st.composite
def config_with_one_key_twice(draw):
    """A valid config's text with one key, at any nesting level, written a
    second time after the first, holding its own value or an arbitrary one;
    returns the key and the text."""
    doc = copy.deepcopy(draw(st.sampled_from(FULL_DOCS)))
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node)))
        if not isinstance(node[key], dict) or draw(st.booleans()):
            break
        node = node[key]
    node[_REPEAT] = draw(st.just(node[key]) | json_values)
    return key, json.dumps(doc).replace(json.dumps(_REPEAT), json.dumps(key))


@settings(max_examples=200)
@given(case=config_with_one_key_twice())
def test_key_written_twice_is_rejected(tmp_path_factory, case):
    key, text = case
    assert text.count(json.dumps(key) + ":") >= 2
    errors = _load_text(tmp_path_factory, text)
    assert any(repr(key) in e for e in errors), errors


# Sizes at int64's and numpy's limits: 2**32 x 2**32 elements wrap to 0 in
# int64, and numpy cannot represent a 10**30 dimension even at size 0.
dims = (st.sampled_from([0, 1, 2, 2**32, 2**63, 2**64, 10**30])
        | st.integers(-1, 2**80))
manifest_lines = st.tuples(
    st.text("ab.", max_size=3) | st.text(max_size=3),
    st.sampled_from(["f32", "f64", "i64", "u8"]),
    st.just("scalar") | st.lists(dims, max_size=3).map(
        lambda ds: ",".join(str(d) for d in ds)),
    st.sampled_from(["0", "4", "8"]) | st.integers(-1, 40).map(str),
).map("\t".join)
manifest_bytes = (st.binary(max_size=64)
                  | st.lists(manifest_lines, max_size=3).map(
                      lambda ls: "\n".join(ls).encode("utf-8")))


@settings(max_examples=300)
@given(manifest=manifest_bytes, blob=st.binary(max_size=32))
def test_load_checkpoint_returns_or_raises_its_own_error(tmp_path_factory,
                                                         manifest, blob):
    stem = tmp_path_factory.mktemp("ckpt") / "checkpoint"
    stem.with_suffix(".manifest").write_bytes(manifest)
    stem.with_suffix(".blob").write_bytes(blob)
    try:
        load_checkpoint(stem)
    except CheckpointError:
        pass
