"""Property tests of the two file readers: whatever bytes a config file or a
checkpoint manifest holds, reading it either succeeds or raises the reader's
own error, which the command line reports as one `error:` line.

Besides arbitrary bytes, the strategies build inputs that get past the first
checks: deeply nested JSON, JSON values at the config's own keys, and
manifests of well-formed lines with arbitrary tags, shapes and offsets.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv.config import ConfigValidationError, load_config
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
