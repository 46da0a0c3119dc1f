"""Checkpoint serialization: canonical JSON, hashes, fingerprints, round trips."""

import base64
import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hipan import (
    AdamConfig,
    CodecParams,
    GistConfig,
    ModelConfig,
    TrainPlan,
    default_plan,
    load_checkpoint,
    new_model,
    save_checkpoint,
    train,
    uniform_plan,
)
from hipan.checkpoint import (
    FORMAT,
    canonical_json,
    checkpoint_fingerprint,
    config_hash,
    config_matches,
    load_model,
)
from hipan.model import (
    HiPaNModel,
    _array_views,
    model_arrays,
    model_from_state,
    model_state,
    pack_array,
    pack_rows,
    unpack_array,
    unpack_rows,
)
from hipan.optim import OptimState, optim_state_dict, restore_optim_state


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"x": 0.1}) == '{"x":0.1}'
    assert canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]}) == (
        '{"a":[2,{"y":1,"z":0}],"b":1}'
    )


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_config_hash_stability():
    assert config_hash({}) == config_hash(None)
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    int(config_hash(None), 16)  # hex digest
    assert len(config_hash(None)) == 64


def _model(seed=0):
    return new_model(ModelConfig(CodecParams(3, 2)), seed=seed)


def test_fingerprint_ignores_timestamp(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_checkpoint(str(a), _model(), created_unix_ms=123)
    save_checkpoint(str(b), _model(), created_unix_ms=999_999)
    assert a.read_bytes() != b.read_bytes()
    fa = checkpoint_fingerprint(load_checkpoint(str(a)))
    fb = checkpoint_fingerprint(load_checkpoint(str(b)))
    assert fa == fb


def test_fingerprint_sees_model_changes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_checkpoint(str(a), _model(seed=0), created_unix_ms=0)
    save_checkpoint(str(b), _model(seed=1), created_unix_ms=0)
    fa = checkpoint_fingerprint(load_checkpoint(str(a)))
    fb = checkpoint_fingerprint(load_checkpoint(str(b)))
    assert fa != fb


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(
        str(path),
        _model(),
        optim_state={"kind": "gist", "streak": 1},
        cursor={"phase": 0, "epoch": 2},
        seed=7,
        run_config={"lr": 0.1},
        created_unix_ms=55,
    )
    doc = load_checkpoint(str(path))
    assert doc["format"] == FORMAT
    assert doc["cursor"] == {"phase": 0, "epoch": 2}
    assert doc["seed"] == 7
    assert doc["optim"] == {"kind": "gist", "streak": 1}
    assert doc["created_unix_ms"] == 55
    assert doc["config_hash"] == config_hash({"lr": 0.1})
    # writing the identical state again is byte-identical
    other = tmp_path / "again.json"
    save_checkpoint(
        str(other),
        _model(),
        optim_state={"kind": "gist", "streak": 1},
        cursor={"phase": 0, "epoch": 2},
        seed=7,
        run_config={"lr": 0.1},
        created_unix_ms=55,
    )
    assert path.read_bytes() == other.read_bytes()


def test_save_creates_parent_dirs(tmp_path):
    path = tmp_path / "a" / "b" / "ckpt.json"
    save_checkpoint(str(path), _model())
    assert path.exists()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), _model(), created_unix_ms=1)
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk went away")

    monkeypatch.setattr("hipan.checkpoint.os.fsync", fail)
    changed = _model()
    changed.heads[0].table[...] += 1.0
    with pytest.raises(OSError, match="disk went away"):
        save_checkpoint(str(path), changed, created_unix_ms=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_trained_floats_survive_round_trip(tmp_path, toy_dataset):
    plan = TrainPlan(default_plan(2).phases[:1], checkpoint_interval=0)
    model = new_model(ModelConfig(toy_dataset.codec), seed=5)
    train(model, toy_dataset, GistConfig(seed=5), plan, checkpoint_dir=str(tmp_path))
    back = load_model(load_checkpoint(str(tmp_path / "ckpt-final.json")))
    assert np.array_equal(back.heads[0].table, model.heads[0].table)
    assert np.array_equal(back.heads[1].table, model.heads[1].table)
    assert model_state(back) == model_state(model)


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all{")
    with pytest.raises(ValueError, match="JSON"):
        load_checkpoint(str(bad))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else-v9"}))
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(str(wrong))
    missing = tmp_path / "nope.json"
    with pytest.raises(OSError):
        load_checkpoint(str(missing))


def test_config_matches(tmp_path):
    with_cfg = tmp_path / "cfg.json"
    save_checkpoint(str(with_cfg), _model(), run_config={"lr": 0.1})
    doc = load_checkpoint(str(with_cfg))
    assert config_matches(doc, {"lr": 0.1})
    assert not config_matches(doc, {"lr": 0.2})
    # checkpoints saved without a configuration accept any resume config
    bare = tmp_path / "bare.json"
    save_checkpoint(str(bare), _model())
    free = load_checkpoint(str(bare))
    assert free["config_hash"] is None
    assert config_matches(free, {"lr": 0.9})
    assert config_matches(free, None)


_SPECIAL = [
    -0.0, 0.0, 1.0, -1.0, 32767.0, -32768.0, 32768.0, -32769.0, 0.5, -2.5,
    1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
]


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_SPECIAL),
            st.integers(-40_000, 40_000).map(float),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    )
)
def test_pack_array_round_trips_every_bit(values):
    arr = np.array(values, dtype=np.float64)
    text = pack_array("t", arr)
    back = unpack_array("t", text).reshape(arr.shape)
    assert back.dtype == np.float64 and back.flags.writeable
    assert np.array_equal(back.view(np.int64), arr.view(np.int64))
    # int16 exactly when it holds every value: integers in range, no -0.0
    fits = all(
        v == math.floor(v) and -32768 <= v <= 32767 and not (v == 0 and math.copysign(1.0, v) < 0)
        for v in values
    )
    assert text.startswith("int16:") == fits


def test_pack_array_forms():
    lattice = np.arange(-3.0, 5.0).reshape(2, 4)
    assert pack_array("t", lattice).startswith("int16:")
    assert pack_array("t", np.array([0.0, -0.0])).startswith("float64:")
    assert pack_array("t", np.array([32768.0])).startswith("float64:")
    assert pack_array("t", np.array([0.25])).startswith("float64:")
    assert unpack_array("t", pack_array("t", np.zeros((0,)))).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_latents(tmp_path, bad):
    model = _model()
    model.heads[1].table[1, 2] = bad
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError, match="table head1.table"):
        save_checkpoint(str(path), model)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_refuses_non_finite_moments(bad):
    shape = _model().latents.shape
    state = OptimState(t=1, m=np.zeros(shape), u=np.zeros(shape))
    _array_views(state.u)["head0.anchor"][1] = bad
    with pytest.raises(ValueError, match="table u.head0.anchor"):
        optim_state_dict("adam", state)


def _float64_text(values):
    """pack_array's float64 form of any values, non-finite ones included."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return "float64:" + base64.b64encode(raw).decode("ascii")


def _xor_text(rows, base):
    """pack_rows' XOR form of rows stored over base: any zlib stream of
    their bits XORed with base's, non-finite values included."""
    bits = np.asarray(rows, dtype=np.float64).view(np.uint64) ^ base.view(np.uint64)
    return base64.b64encode(zlib.compress(bits.astype("<u8").tobytes())).decode("ascii")


def _inflated(text, dtype="<u8"):
    """The entries of pack_rows text: XOR bits, or int16 deltas."""
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=dtype)


def _v4_values(rows, base):
    """Format v4's text of rows stored over base: base64 of the Z_RLE
    zlib stream of their float64 bits XORed with base's."""
    bits = np.asarray(rows, dtype=np.float64).view(np.uint64)
    bits = bits ^ np.asarray(base, dtype=np.float64).view(np.uint64)
    deflate = zlib.compressobj(strategy=zlib.Z_RLE)
    raw = deflate.compress(bits.astype("<u8").tobytes()) + deflate.flush()
    return base64.b64encode(raw).decode("ascii")


def _poisoned_state(form, bad):
    """A model state whose head1.table holds bad, in the stored row or in
    the row indices (the forms name the fields as format v3 did, when
    "values" held the rows themselves)."""
    model = new_model(ModelConfig(CodecParams(3, 3)), seed=0)
    state = model_state(model)
    table = model.heads[1].table.copy()
    table[1, 2] = bad
    xor = _xor_text(table[1], model.heads[1].table[1])
    if form == "v3 values":
        packed = {"rows": pack_array("t", np.array([1])), "values": xor}
    else:
        packed = {"rows": _float64_text([bad]), "values": xor}
    state["tables"]["head1.table"] = packed
    return state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["v3 values", "v3 rows"])
def test_load_refuses_non_finite_latents(form, bad):
    # through JSON text, as a file holds it
    state = json.loads(json.dumps(_poisoned_state(form, bad)))
    with pytest.raises(ValueError, match="table head1.table holds a non-finite value"):
        model_from_state(state)
    # the same state with 1.0 in place of the bad value loads
    fine = json.loads(json.dumps(_poisoned_state(form, 1.0)))
    assert model_from_state(fine).heads[1].table[1, 2] == 1.0


def test_lattice_checkpoint_is_compact(tmp_path):
    # a fresh model stores no table; one edited entry stores its row as
    # int16 deltas against the init that are zero but for that entry
    path = tmp_path / "ckpt.json"
    model = new_model(ModelConfig(CodecParams(31, 4)), seed=0)
    save_checkpoint(str(path), model)
    doc = load_checkpoint(str(path))
    assert doc["format"] == FORMAT
    assert doc["model"]["init"] == "uniform-v3"
    assert doc["model"]["tables"] == {}
    # the header alone
    fresh = path.stat().st_size
    assert fresh < 300
    init = model.heads[2].table[7].copy()
    model.heads[2].table[7, 3] += 1
    save_checkpoint(str(path), model)
    tables = load_checkpoint(str(path))["model"]["tables"]
    assert tables.keys() == {"head2.table"}
    stored = tables["head2.table"]
    assert stored.keys() == {"rows", "deltas"}
    assert stored["rows"] == pack_array("t", np.array([7]))
    want = model.heads[2].table[7] - init
    assert np.array_equal(_inflated(stored["deltas"], "<i2"), want)
    assert np.flatnonzero(want).tolist() == [3]
    # the table's name, its row index and a short stream: far less than
    # the row's 31 values of 8 bytes each, or their 31 int16 deltas
    assert path.stat().st_size - fresh < 70


def test_hand_built_model_round_trips_every_bit():
    # arrays that new_model never drew: an all-zero table, a -0.0 table
    # and a non-integer anchor, beside the init's own anchors and table
    config = ModelConfig(CodecParams(5, 3))
    latents = new_model(config, seed=4).latents.copy()
    latents[0, :5] = 0.0  # head 0's table
    latents[1, :5] = -0.0  # head 1's table
    latents[2, 5] = np.linspace(-1.5, 70000.25, 5)  # head 2's anchors
    built = HiPaNModel(config, latents, init_seed=4)
    state = json.loads(canonical_json(model_state(built)))
    # the init's own arrays are not stored; integers go as deltas, and
    # -0.0 and the non-integer anchors as bit XORs
    assert {name: stored.keys() - {"rows"} for name, stored in state["tables"].items()} == {
        "head0.table": {"deltas"},
        "head1.table": {"values"},
        "head2.anchor": {"values"},
    }
    back = model_from_state(state)
    for (name, a), b in zip(model_arrays(built).items(), model_arrays(back).values()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_no_tables_load_as_the_fresh_init():
    model = new_model(ModelConfig(CodecParams(7, 3)), seed=5)
    state = json.loads(canonical_json(model_state(model)))
    assert state["tables"] == {}
    back = model_from_state(state)
    assert np.array_equal(back.latents.view(np.int64), model.latents.view(np.int64))
    # a stored table beside missing ones: only it moves off the init
    model.heads[1].anchor[2] += 3
    state = json.loads(canonical_json(model_state(model)))
    assert state["tables"].keys() == {"head1.anchor"}
    back = model_from_state(state)
    assert np.array_equal(back.latents.view(np.int64), model.latents.view(np.int64))


def _pack_case(case):
    """(rows stored over base, base) of a named pack_rows case: 3 rows of
    4 entries over an integer base, row 1 left at the base."""
    base = np.arange(12.0).reshape(3, 4) % 5
    arr = base.copy()
    if case == "integer rows":
        arr[0] += [1, -1, 0, 7]
        arr[2, 3] = -30000.0
    elif case == "float rows":
        arr[0] += 0.5
        arr[2] = np.linspace(-1e300, 3.25, 4)
    elif case == "-0.0":
        arr[0, 0] = -0.0
    elif case == "delta past int16":
        arr[2, 1] = base[2, 1] + 32768
    elif case == "integer and float rows":
        arr[0] += 1
        arr[2, 2] += 1e-9
    return arr, base


@pytest.mark.parametrize(
    "case, codec",
    [
        ("integer rows", "deltas"),
        ("float rows", "values"),
        ("-0.0", "values"),
        ("delta past int16", "values"),
        ("integer and float rows", "values"),
    ],
)
def test_pack_rows_takes_the_codec_that_holds_every_bit(case, codec):
    arr, base = _pack_case(case)
    stored = json.loads(json.dumps(pack_rows("t", arr, base)))
    assert stored.keys() == {"rows", codec}
    rows = np.flatnonzero((arr.view(np.int64) != base.view(np.int64)).any(axis=1))
    assert stored["rows"] == pack_array("t", rows)
    back = unpack_rows("t", stored, base.copy())
    assert np.array_equal(back.view(np.int64), arr.view(np.int64))
    if codec == "values":
        assert stored["values"] == _v4_values(arr[rows], base[rows])
    else:
        assert np.array_equal(_inflated(stored["deltas"], "<i2"), (arr[rows] - base[rows]).ravel())


def _stored_value():
    return st.one_of(
        st.integers(-33_000, 33_000).map(float),
        st.sampled_from([-0.0, 0.0, 0.5, -2.25, 1e300, 5e-324]),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), _stored_value()), max_size=8),
)
def test_pack_rows_round_trips_every_bit(n, width, seed, edits):
    base = np.random.default_rng(seed).integers(0, 50, size=(n, width)).astype(np.float64)
    arr = base.copy()
    for row, col, value in edits:
        arr[row % n, col % width] = value
    stored = pack_rows("t", arr, base)
    differs = (arr.view(np.int64) != base.view(np.int64)).any(axis=1)
    if not differs.any():
        assert stored is None
        return
    kept, under = arr[differs], base[differs]
    # deltas exactly when every stored entry is an integer, not -0.0, that
    # lies within int16 of its base
    fits = (
        (kept == np.floor(kept))
        & ~((kept == 0) & np.signbit(kept))
        & (-32768 <= kept - under)
        & (kept - under <= 32767)
    ).all()
    assert stored.keys() == {"rows", "deltas" if fits else "values"}
    back = unpack_rows("t", json.loads(json.dumps(stored)), base.copy())
    assert np.array_equal(back.view(np.int64), arr.view(np.int64))


def test_adam_tables_cost_what_format_v4_stored(tmp_path, toy_dataset):
    # Adam's tables and moments are floats: each is stored as format v4's
    # bit XOR, character for character
    phases = uniform_plan(2, epochs=2, lr=0.03).phases
    plan = TrainPlan(phases, checkpoint_interval=1)
    model = new_model(ModelConfig(toy_dataset.codec), seed=0)
    got = train(model, toy_dataset, AdamConfig(), plan, checkpoint_dir=str(tmp_path))
    docs = [load_checkpoint(path) for path in got.checkpoints]
    (doc,) = [d for d in docs if d["cursor"] == {"phase": 0, "epoch": 1}]
    trained = model_arrays(load_model(doc))
    init = model_arrays(new_model(model.config, seed=0))
    tables = doc["model"]["tables"]
    assert tables
    for name, stored in tables.items():
        rows = np.flatnonzero((trained[name] != init[name]).reshape(len(init[name]), -1).any(1))
        assert stored == {
            "rows": pack_array(name, rows),
            "values": _v4_values(trained[name][rows], init[name][rows]),
        }, name
    moments = restore_optim_state(doc["optim"], model)
    assert doc["optim"]["m"]
    for part in ("m", "u"):
        views = _array_views(getattr(moments, part))
        for name, stored in doc["optim"][part].items():
            a = views[name]
            rows = np.flatnonzero(a.reshape(len(a), -1).any(axis=1))
            assert stored == {
                "rows": pack_array(name, rows),
                "values": _v4_values(a[rows], np.zeros(a[rows].shape)),
            }, (part, name)


# the deltas of two rows of 3 entries
_DELTAS = base64.b64encode(zlib.compress(np.arange(6, dtype="<i2").tobytes())).decode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unpack_rows_refuses_a_delta_landing_on_a_non_finite_value(bad):
    # a checkpoint's base is the finite init, so only a base handed to
    # unpack_rows can put a delta on a non-finite value
    out = np.zeros((3, 3))
    assert unpack_rows("t", {"rows": "int16:AAABAA==", "deltas": _DELTAS}, out).tolist() == [
        [0, 1, 2], [3, 4, 5], [0, 0, 0]
    ]
    out[1, 2] = bad
    with pytest.raises(ValueError, match="^table t holds a non-finite value"):
        unpack_rows("t", {"rows": "int16:AAABAA==", "deltas": _DELTAS}, out)


def _edit_values():
    return st.one_of(
        st.sampled_from(_SPECIAL),
        st.integers(-40_000, 40_000).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
    st.integers(0, 3),
    st.lists(st.tuples(*[st.integers(0, 99)] * 3, _edit_values()), max_size=12),
    st.lists(st.tuples(st.integers(0, 1), *[st.integers(0, 99)] * 2, _edit_values()), max_size=8),
)
def test_v5_round_trips_every_bit(p, K, seed, edits, moment_edits):
    model = new_model(ModelConfig(CodecParams(p, K + 1), K_heads=K), seed=seed)
    arrays = list(model_arrays(model).values())
    for which, row, col, value in edits:
        arr = arrays[which % len(arrays)]
        arr[(row % p, col % p)[: arr.ndim]] = value
    moments = tuple(np.zeros(model.latents.shape) for _ in "mu")
    for part, which, row, value in moment_edits:
        m = list(_array_views(moments[part]).values())[which % len(arrays)]
        m[row % p] = value
    state = OptimState(t=3, m=moments[0], u=moments[1])

    text = canonical_json(model_state(model))
    back = model_from_state(json.loads(text))
    for (name, a), b in zip(model_arrays(model).items(), model_arrays(back).values()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert canonical_json(model_state(back)) == text
    # only the tables and rows whose bits differ from the seeded init are
    # stored: as int16 deltas against it where those hold every bit, as
    # their XOR against it otherwise
    fresh = model_arrays(new_model(model.config, seed=seed))
    tables = json.loads(text)["tables"]
    for name, a in model_arrays(model).items():
        differs = a.view(np.int64) != fresh[name].view(np.int64)
        changed = np.flatnonzero(differs.reshape(len(a), -1).any(axis=1))
        if not len(changed):
            assert name not in tables
            continue
        stored = tables[name]
        assert stored["rows"] == pack_array(name, changed)
        if "deltas" in stored:
            deltas = _inflated(stored["deltas"], "<i2")
            assert np.array_equal(deltas, (a[changed] - fresh[name][changed]).ravel())
        else:
            xor = a[changed].view(np.uint64) ^ fresh[name][changed].view(np.uint64)
            assert np.array_equal(_inflated(stored["values"]), xor.ravel())

    optim_text = canonical_json(optim_state_dict("adam", state))
    restored = restore_optim_state(json.loads(optim_text), model)
    for part in ("m", "u"):
        a, b = getattr(state, part), getattr(restored, part)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), part
    assert canonical_json(optim_state_dict("adam", restored)) == optim_text


def test_phase_entry_checkpoint_holds_no_moments(tmp_path, toy_dataset):
    # train starts every phase from fresh moments, so a checkpoint whose
    # cursor enters a phase, the final one too, stores none; a mid-phase
    # checkpoint stores those of the heads the phase trains
    phases = uniform_plan(2, epochs=2, lr=0.03).phases
    plan = TrainPlan(phases, checkpoint_interval=1)
    model = new_model(ModelConfig(toy_dataset.codec), seed=0)
    got = train(model, toy_dataset, AdamConfig(), plan, checkpoint_dir=str(tmp_path))
    entries = mids = 0
    for path in got.checkpoints:
        doc = load_checkpoint(path)
        optim = doc["optim"]
        if doc["cursor"]["epoch"] == 0:
            entries += 1
            assert optim["shapes"] == optim["m"] == optim["u"] == {}, path
        else:
            mids += 1
            assert optim["m"].keys() == optim["u"].keys() == optim["shapes"].keys() != set()
    assert got.checkpoints[-1].endswith("ckpt-final.json")
    assert (entries, mids) == (3, 2)
    # the rule is optim_state_dict's
    shape = model.latents.shape
    state = OptimState(t=4, m=np.ones(shape), u=np.ones(shape))
    entry = optim_state_dict("adam", state, phase_entry=True)
    assert entry == {"kind": "adam", "t": 4, "shapes": {}, "m": {}, "u": {}}
    assert optim_state_dict("adam", state)["m"].keys() == model_arrays(model).keys()
