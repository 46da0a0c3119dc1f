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
    unpack_array,
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


def _inflated(text):
    """The XOR bits of pack_rows text."""
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype="<u8")


# pack_rows' form of an array stored as its base: no rows, and the
# deflate stream of nothing
_EMPTY = {"rows": "int16:", "values": "eAEDAAAAAAE="}


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
    # a fresh model stores no rows; one edited entry stores its row as an
    # XOR against the init that is zero but for that entry
    path = tmp_path / "ckpt.json"
    model = new_model(ModelConfig(CodecParams(31, 4)), seed=0)
    save_checkpoint(str(path), model)
    doc = load_checkpoint(str(path))
    assert doc["format"] == FORMAT
    assert doc["model"]["init"] == "uniform-v3"
    assert doc["model"]["tables"].keys() == model_arrays(model).keys()
    assert all(v == _EMPTY for v in doc["model"]["tables"].values())
    # the header, and about 50 bytes per empty table
    bound = 300 + 50 * len(model_arrays(model))
    assert path.stat().st_size < bound
    init = model.heads[2].table[7].copy()
    model.heads[2].table[7, 3] += 1
    save_checkpoint(str(path), model)
    tables = load_checkpoint(str(path))["model"]["tables"]
    stored = tables.pop("head2.table")
    assert stored["rows"] == pack_array("t", np.array([7]))
    want = model.heads[2].table[7].view(np.uint64) ^ init.view(np.uint64)
    assert np.array_equal(_inflated(stored["values"]), want)
    assert np.flatnonzero(want).tolist() == [3]
    assert all(v == _EMPTY for v in tables.values())
    # far less than the row's 31 values of 8 bytes each
    assert path.stat().st_size < bound + 40


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
    for name in ("head0.anchor", "head1.anchor", "head2.table"):
        assert state["tables"][name] == _EMPTY
    back = model_from_state(state)
    for (name, a), b in zip(model_arrays(built).items(), model_arrays(back).values()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


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
def test_v4_round_trips_every_bit(p, K, seed, edits, moment_edits):
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
    # only the rows whose bits differ from the seeded init are stored, as
    # their XOR against it
    fresh = model_arrays(new_model(model.config, seed=seed))
    for name, a in model_arrays(model).items():
        differs = a.view(np.int64) != fresh[name].view(np.int64)
        changed = np.flatnonzero(differs.reshape(len(a), -1).any(axis=1))
        stored = json.loads(text)["tables"][name]
        assert stored["rows"] == pack_array(name, changed)
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
