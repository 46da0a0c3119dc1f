"""Command line behavior: subcommands, precedence, exit codes."""

import base64
import json
import os
import time
import zlib
from collections import Counter

import numpy as np
import pytest

from hipan import (
    AdamConfig,
    CodecParams,
    GistConfig,
    ModelConfig,
    TrainPlan,
    dataset_to_json,
    default_plan,
    dump_tree,
    encode_tree,
    gen_synthetic,
    loads_tree,
    new_model,
    train,
    uniform_plan,
)
import hipan.cli
import hipan.optim
import hipan.tree
from hipan.checkpoint import (
    FORMAT,
    canonical_json,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from hipan.model import model_arrays, pack_array
from hipan.cli import main, parse_config_file, resolve_config
from conftest import TOY_TEXT


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("HIPAN_"):
            monkeypatch.delenv(name)


@pytest.fixture
def toy_files(tmp_path):
    tree_path = tmp_path / "toy.tsv"
    tree_path.write_text(TOY_TEXT)
    ds_path = tmp_path / "toy.json"
    ds_path.write_text(dataset_to_json(encode_tree(loads_tree(TOY_TEXT))))
    return str(tree_path), str(ds_path)


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _train_toy(capsys, tmp_path, toy_files, *extra, pre=()):
    tree_path, ds_path = toy_files
    ckdir = tmp_path / "ck"
    rc, out, err = run(
        capsys,
        [
            *pre,
            "train",
            "--dataset", ds_path,
            "--tree", tree_path,
            "--checkpoint-dir", str(ckdir),
            "--log", str(tmp_path / "train.jsonl"),
            "--seed", "0",
            *extra,
        ],
    )
    assert rc == 0, err
    return json.loads(out), str(ckdir)


def test_ingest_summary(capsys, tmp_path, toy_files):
    tree_path, _ = toy_files
    out_path = tmp_path / "ds.json"
    rc, out, _ = run(
        capsys, ["ingest", "--tree", tree_path, "--out", str(out_path)]
    )
    assert rc == 0
    assert json.loads(out) == {
        "leaves": 3,
        "p": 3,
        "K": 2,
        "b_max": 2,
        "branching_histogram": {"0": {"2": 1}, "1": {"1": 1, "2": 1}},
    }
    back = json.loads(out_path.read_text())
    assert back["codec"] == {"p": 3, "K": 2}


def test_ingest_k_digits_padding(capsys, tmp_path, toy_files):
    tree_path, _ = toy_files
    out_path = tmp_path / "ds.json"
    rc, out, _ = run(
        capsys,
        ["ingest", "--tree", tree_path, "--out", str(out_path), "--k-digits", "4"],
    )
    assert rc == 0
    assert json.loads(out)["K"] == 4


def test_ingest_malformed_tree_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("root\t-\nroot\troot\n")
    rc, _, err = run(
        capsys, ["ingest", "--tree", str(bad), "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "line 2" in err


def test_ingest_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(
        capsys,
        ["ingest", "--tree", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "x")],
    )
    assert rc == 2
    assert err.startswith("error:")


def test_synth_summary(capsys, tmp_path):
    rc, out, _ = run(
        capsys,
        [
            "synth",
            "--kind", "complete",
            "--branching", "2",
            "--depth", "2",
            "--out-tree", str(tmp_path / "t.tsv"),
            "--out-dataset", str(tmp_path / "d.json"),
        ],
    )
    assert rc == 0
    assert json.loads(out) == {
        "nodes": 7, "leaves": 4, "max_depth": 2, "p": 3, "K": 2,
    }
    assert (tmp_path / "t.tsv").exists()


def test_train_gist_summary(capsys, tmp_path, toy_files):
    summary, ckdir = _train_toy(capsys, tmp_path, toy_files)
    assert summary["event"] == "summary"
    assert summary["leaf_acc"] == 1.0
    assert summary["parameters"] == 24
    assert summary["hyperparameters"] == {"patience": 2}
    assert summary["checkpoints"]
    assert any(c.endswith("ckpt-final.json") for c in summary["checkpoints"])
    assert os.path.exists(os.path.join(ckdir, "ckpt-final.json"))
    log_lines = (tmp_path / "train.jsonl").read_text().splitlines()
    first = json.loads(log_lines[0])
    assert {"phase", "epoch", "loss", "leaf_acc"} <= set(first)


def test_train_adam_summary(capsys, tmp_path, toy_files):
    summary, _ = _train_toy(capsys, tmp_path, toy_files, "--optimizer", "adam")
    hyper = summary["hyperparameters"]
    assert hyper == {"beta1": 0.9, "beta2": 0.999, "lr": 0.015}
    mids = [c for c in summary["checkpoints"] if "final" not in c]
    assert mids  # 104-epoch default plan crosses the interval


def test_train_adam_uniform_plan(capsys, tmp_path, toy_files):
    summary, _ = _train_toy(
        capsys, tmp_path, toy_files, "--optimizer", "adam", "--plan", "uniform"
    )
    assert summary["event"] == "summary"
    assert summary["leaf_acc"] is not None
    assert summary["hyperparameters"]["lr"] == 1e-3  # the uniform plan's one rate


# the rates that train ran with before the command line left unset
# rates to the library: 0.015 and 0.03, or 1e-3 for the uniform plan
@pytest.mark.parametrize(
    "flags, optimizer, plan",
    [
        ((), AdamConfig(lr=0.015, warmup_lr=0.03), default_plan(2, lr=0.015, warmup_lr=0.03)),
        (("--lr", "0.2"), AdamConfig(lr=0.2, warmup_lr=0.03), default_plan(2, 0.2, 0.03)),
        (("--warmup-lr", "0.1"), AdamConfig(lr=0.015, warmup_lr=0.1), default_plan(2, 0.015, 0.1)),
        (("--plan", "uniform"), AdamConfig(lr=0.015, warmup_lr=0.03), uniform_plan(2, lr=1e-3)),
        (("--plan", "uniform", "--lr", "0.2"), AdamConfig(lr=0.2), uniform_plan(2, lr=0.2)),
    ],
)
def test_train_rates_left_unset_are_the_library_defaults(
    capsys, toy_files, monkeypatch, flags, optimizer, plan
):
    seen = {}

    def fake_train(model, ds, opt, plan, **kwargs):
        seen.update(optimizer=opt, plan=plan)
        return hipan.optim.TrainResult([], 0, 0, [])

    monkeypatch.setattr(hipan.cli, "train", fake_train)
    _, ds_path = toy_files
    rc, out, err = run(capsys, ["train", "--dataset", ds_path, "--optimizer", "adam", *flags])
    assert rc == 0, err
    assert seen == {"optimizer": optimizer, "plan": plan}
    # the summary reports the rate of the plan's last phase, the one Adam
    # ended on: 1e-3 for the uniform plan, whatever AdamConfig's lr says
    hyper = json.loads(out)["hyperparameters"]
    assert hyper == {"beta1": 0.9, "beta2": 0.999, "lr": plan.phases[-1].lr}


def test_eval_trained_checkpoint(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    rc, out, _ = run(
        capsys,
        [
            "eval",
            "--dataset", ds_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
            "--tree", tree_path,
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["leaf_accuracy"] == 1.0
    assert doc["root_accuracy"] == 1.0
    assert doc["digit_accuracy"] == [1.0, 1.0]
    assert doc["n_records"] == 3
    assert isinstance(doc["loss"], float)
    out_path = tmp_path / "eval.json"
    rc, out, _ = run(
        capsys,
        [
            "eval",
            "--dataset", ds_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
            "--out", str(out_path),
        ],
    )
    assert rc == 0 and out == ""
    assert json.loads(out_path.read_text())["leaf_accuracy"] == 1.0


def test_diagnose_stdout_and_out_dir(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    out_dir = tmp_path / "diag"
    rc, out, _ = run(
        capsys,
        [
            "diagnose",
            "--dataset", ds_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
            "--tree", tree_path,
            "--out-dir", str(out_dir),
            "--bins", "10",
        ],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["leaf_acc"] == 1.0
    assert doc["spearman_rho"] == pytest.approx(-1.0)
    assert doc["triangle_violations"] == 0
    assert len(doc["calibration"]["bins"]) == 10
    for name in (
        "report.json", "entropy.tsv", "box_counts.tsv",
        "reliability.tsv", "distances.tsv",
    ):
        assert (out_dir / name).exists(), name
    on_disk = json.loads((out_dir / "report.json").read_text())
    assert on_disk == doc


@pytest.mark.parametrize(
    "name,value", [("max_pairs", "0"), ("max_pairs", "-5"), ("bins", "0"), ("bins", "-2")]
)
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_diagnose_size_below_one_exit_2(
    capsys, tmp_path, toy_files, monkeypatch, source, name, value
):
    """A pair budget or bin count below 1 is refused from any source,
    instead of a NaN rho (not JSON) or an empty calibration."""
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    out_path = tmp_path / "diag.json"
    argv = [
        "diagnose", "--dataset", ds_path, "--tree", tree_path,
        "--checkpoint", os.path.join(ckdir, "ckpt-final.json"), "--out", str(out_path),
    ]
    if source == "flag":
        argv += ["--" + name.replace("_", "-"), value]
    elif source == "env":
        monkeypatch.setenv("HIPAN_" + name.upper(), value)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={value}\n")
        argv = ["--config", str(cfg), *argv]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    param = "n_bins" if name == "bins" else name
    assert err == f"error: {param} must be at least 1, got {value}\n"
    assert not out_path.exists()


def test_inspect_depth_histogram(capsys, toy_files):
    _, ds_path = toy_files
    rc, out, _ = run(capsys, ["inspect", "--dataset", ds_path])
    assert rc == 0
    assert json.loads(out) == {
        "records": 3, "p": 3, "K": 2, "depth_histogram": {"2": 3},
    }


@pytest.mark.parametrize("p", [18446744073709551629, 3317044064679887385961981, 2**89 - 1])
def test_inspect_huge_alphabet_finishes(capsys, tmp_path, p):
    # 2^64 + 13 is prime; the two larger ones are past what the primality
    # test decides, so the codec refuses them
    path = tmp_path / "huge.json"
    record = {"leaf": "a", "code": "0", "depth": 1}
    path.write_text(json.dumps({"codec": {"p": p, "K": 1}, "records": [record]}))
    t0 = time.monotonic()
    rc, _, err = run(capsys, ["inspect", "--dataset", str(path)])
    assert time.monotonic() - t0 < 1.0
    assert rc in (0, 2)
    assert "Traceback" not in err


def test_train_model_past_physical_memory_exit_2(capsys, tmp_path):
    # p = 1000003 with two heads asks for about 16 TB of latents
    path = tmp_path / "wide.json"
    records = [{"leaf": "a", "code": "0-0", "depth": 1}, {"leaf": "b", "code": "1-0", "depth": 1}]
    path.write_text(json.dumps({"codec": {"p": 1000003, "K": 2}, "records": records}))
    ckdir = str(tmp_path / "ck")
    rc, _, err = run(capsys, ["train", "--dataset", str(path), "--checkpoint-dir", ckdir])
    assert rc == 2
    assert "p=1000003" in err and "bytes" in err
    assert "Traceback" not in err


def test_inspect_prefix_with_tree(capsys, toy_files):
    tree_path, ds_path = toy_files
    rc, out, _ = run(
        capsys,
        ["inspect", "--dataset", ds_path, "--prefix", "0", "--tree", tree_path],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "depth": 1,
        "member_count": 2,
        "members": ["cat", "dog"],
        "subtree_root": "animal",
    }


def test_inspect_member_cap(capsys, tmp_path):
    rc, _, _ = run(
        capsys,
        [
            "synth",
            "--branching", "5",
            "--depth", "2",
            "--out-tree", str(tmp_path / "t.tsv"),
            "--out-dataset", str(tmp_path / "d.json"),
        ],
    )
    assert rc == 0
    rc, out, _ = run(
        capsys, ["inspect", "--dataset", str(tmp_path / "d.json"), "--prefix", ""]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["member_count"] == 25
    assert len(doc["members"]) == 20


def test_inspect_bad_prefix_exit_2(capsys, toy_files):
    _, ds_path = toy_files
    rc, _, err = run(
        capsys, ["inspect", "--dataset", ds_path, "--prefix", "0-x"]
    )
    assert rc == 2
    assert "prefix" in err


def test_export_viz(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    rc, out, _ = run(
        capsys, ["export-viz", "--dataset", ds_path, "--tree", tree_path]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "root"
    assert [c["name"] for c in doc["children"]] == ["animal", "plant"]
    out_path = tmp_path / "viz.json"
    rc, out, _ = run(
        capsys,
        ["export-viz", "--dataset", ds_path, "--tree", tree_path,
         "--out", str(out_path)],
    )
    assert rc == 0
    assert json.loads(out) == {"written": str(out_path), "leaves": 3}
    assert json.loads(out_path.read_text())["name"] == "root"


def test_precedence_file_env_flag(capsys, tmp_path, toy_files, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# training knobs\nlr=0.5\n")

    def lr_of(*extra):
        summary, _ = _train_toy(
            capsys, tmp_path, toy_files,
            "--optimizer", "adam", *extra,
            pre=("--config", str(cfg)),
        )
        return summary["hyperparameters"]["lr"]

    assert lr_of() == 0.5
    monkeypatch.setenv("HIPAN_LR", "0.25")
    assert lr_of() == 0.25
    assert lr_of("--lr", "0.125") == 0.125


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# comment\nseed = 9\n optimizer=adam\n")
    assert parse_config_file(str(cfg)) == {"seed": 9, "optimizer": "adam"}
    assert resolve_config(str(cfg), {}).seed == 9
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(str(bad))


def test_unknown_config_key_exit_2(capsys, tmp_path, toy_files):
    tree_path, _ = toy_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate=0.5\n")
    rc, _, err = run(
        capsys,
        ["--config", str(cfg), "ingest", "--tree", tree_path,
         "--out", str(tmp_path / "x.json")],
    )
    assert rc == 2
    assert "unknown setting" in err


def test_bad_env_optimizer_exit_2(capsys, tmp_path, toy_files, monkeypatch):
    tree_path, ds_path = toy_files
    monkeypatch.setenv("HIPAN_OPTIMIZER", "sgd")
    rc, _, err = run(
        capsys,
        ["train", "--dataset", ds_path, "--log", str(tmp_path / "l.jsonl")],
    )
    assert rc == 2
    assert "gist or adam" in err


@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_adam_batch_size_below_one_exit_2(capsys, tmp_path, toy_files, batch_size):
    _, ds_path = toy_files
    argv = ["train", "--dataset", ds_path, "--optimizer", "adam", "--batch-size", batch_size]
    rc, _, err = run(capsys, [*argv, "--log", str(tmp_path / "l.jsonl")])
    assert rc == 2
    assert err.startswith("error: batch_size must be >= 1")


@pytest.mark.parametrize(
    "flags",
    [
        ("--tau", "nan"),
        ("--optimizer", "adam", "--tau", "nan"),
        ("--optimizer", "adam", "--lr", "nan"),
        ("--optimizer", "adam", "--warmup-lr", "nan"),
        ("--optimizer", "adam", "--lr", "inf"),
        ("--lr", "nan"),
    ],
)
def test_non_finite_hyperparameter_exit_2_naming_it(capsys, tmp_path, toy_files, flags):
    _, ds_path = toy_files
    log = tmp_path / "l.jsonl"
    rc, out, err = run(capsys, ["train", "--dataset", ds_path, *flags, "--log", str(log)])
    assert rc == 2, err
    assert err.startswith(f"error: {flags[-2][2:].replace('-', '_')} must be finite"), err
    # refused before the first epoch: nothing logged, no numpy warning
    assert out == "" and not log.exists() and "Warning" not in err


def test_non_finite_rate_in_config_file_exit_2(capsys, tmp_path, toy_files):
    _, ds_path = toy_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr=nan\n")
    argv = ["--config", str(cfg), "train", "--dataset", ds_path, "--optimizer", "adam"]
    rc, out, err = run(capsys, [*argv, "--log", str(tmp_path / "l.jsonl")])
    assert rc == 2 and out == ""
    assert err.startswith("error: lr must be finite"), err


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
def test_eval_checkpoint_with_bad_tau_exit_2(capsys, tmp_path, toy_files, tau):
    # json writes NaN and Infinity, which json reads back; eval must not
    # print them as its loss
    _, ds_path = toy_files
    summary, _ = _train_toy(capsys, tmp_path, toy_files)
    doc = json.loads(open(summary["checkpoints"][-1]).read())
    doc["model"]["tau"] = tau
    bad = tmp_path / "bad-tau.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["eval", "--dataset", ds_path, "--checkpoint", str(bad)])
    assert rc == 2 and out == ""
    assert err.startswith("error: tau must be finite and > 0"), err


def test_usage_errors_exit_1(capsys, toy_files):
    _, ds_path = toy_files
    rc, _, err = run(capsys, [])
    assert rc == 1 and err.startswith("usage error:")
    rc, _, err = run(capsys, ["train", "--dataset", ds_path, "--seed", "x"])
    assert rc == 1
    rc, _, err = run(capsys, ["ingest", "--bogus"])
    assert rc == 1
    rc, _, err = run(capsys, ["train", "--dataset", ds_path, "--optimizer", "sgd"])
    assert rc == 1


def test_resume_config_mismatch_exit_2(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    rc, _, err = run(
        capsys,
        [
            "train",
            "--dataset", ds_path,
            "--tree", tree_path,
            "--resume", os.path.join(ckdir, "ckpt-final.json"),
            "--log", str(tmp_path / "r.jsonl"),
            "--seed", "1",
        ],
    )
    assert rc == 2
    assert "refusing to resume" in err


def test_resume_with_other_optimizer_exit_2(capsys, tmp_path, toy_files):
    # a checkpoint written without a run configuration passes the config
    # check, so the optimizer-kind check is what stops the resume
    tree_path, ds_path = toy_files
    ds = encode_tree(loads_tree(TOY_TEXT))
    model = new_model(ModelConfig(ds.codec), seed=0)
    plan = TrainPlan(default_plan(ds.codec.K).phases, checkpoint_interval=2)
    train(model, ds, GistConfig(), plan, checkpoint_dir=str(tmp_path / "ck"))
    rc, _, err = run(
        capsys,
        [
            "train",
            "--dataset", ds_path,
            "--resume", str(tmp_path / "ck" / "ckpt-00002.json"),
            "--log", str(tmp_path / "r.jsonl"),
            "--optimizer", "adam",
        ],
    )
    assert rc == 2
    assert err.startswith("error:") and "gist optimizer state" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payload",
    [
        {"codec": {"p": 3, "K": 2}, "records": [{"leaf": "cat", "code": "0-0", "depth": None}]},
        {"codec": {"p": 3, "K": 2}, "records": ["cat"]},
        {"codec": {"p": 3, "K": 2}, "records": {"cat": "0-0"}},
        {
            "codec": {"p": 3, "K": 2},
            "records": [
                {"leaf": "cat", "code": "0-0", "depth": 2},
                {"leaf": "cat", "code": "0-1", "depth": 2},
            ],
        },
        {
            "codec": {"p": 3, "K": 2},
            "records": [
                {"leaf": "cat", "code": "0-0", "depth": 2},
                {"leaf": "dog", "code": "0-0", "depth": 2},
            ],
        },
    ],
)
def test_malformed_dataset_exit_2_without_traceback(capsys, tmp_path, toy_files, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    tree_path, _ = toy_files
    for argv in (
        ["inspect", "--dataset", str(bad)],
        ["train", "--dataset", str(bad), "--tree", tree_path],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 2, err
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_eval_loss_is_the_logged_loss(capsys, tmp_path):
    # K=3 with repeated (digit 1, digit 2) pairs, so the rarity weights
    # of the depth-2 head differ from 1
    tree = gen_synthetic("random", 3, 3, seed=2)
    tree_path = tmp_path / "tree.tsv"
    tree_path.write_text(dump_tree(tree))
    ds_path = tmp_path / "ds.json"
    ds_path.write_text(dataset_to_json(encode_tree(tree)))
    log = tmp_path / "train.jsonl"
    ckdir = tmp_path / "ck"
    for optimizer in ("gist", "adam"):
        rc, _, err = run(
            capsys,
            [
                "train", "--dataset", str(ds_path), "--tree", str(tree_path),
                "--checkpoint-dir", str(ckdir), "--log", str(log),
                "--optimizer", optimizer,
            ],
        )
        assert rc == 0, err
        last = json.loads(log.read_text().splitlines()[-1])
        assert last["phase"] == "fine-tune"
        rc, out, err = run(
            capsys,
            [
                "eval", "--dataset", str(ds_path), "--tree", str(tree_path),
                "--checkpoint", str(ckdir / "ckpt-final.json"),
            ],
        )
        assert rc == 0, err
        doc = json.loads(out)
        assert doc["loss"] == last["loss"]
        assert doc["leaf_accuracy"] == last["leaf_acc"]


def _deflated(raw):
    """pack_rows' text of XOR bytes: base64 of their zlib stream."""
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def _stored_rows(doc, name, rows, values):
    """Table name of checkpoint doc storing values (any floats) at rows,
    as pack_rows stores them: XORed against the model's seeded init."""
    m = doc["model"]
    config = ModelConfig(CodecParams(m["p"], m["K"]), m["K_heads"], m["tau"])
    rows = np.asarray(list(rows))
    init = model_arrays(new_model(config, seed=m["seed"]))[name][rows]
    bits = np.asarray(values, dtype=np.float64).view(np.uint64) ^ init.view(np.uint64)
    return {"rows": pack_array(name, rows), "values": _deflated(bits.astype("<u8").tobytes())}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_resume_after_numeric_poison_exit_3(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    args = ["--optimizer", "adam"]
    summary, ckdir = _train_toy(capsys, tmp_path, toy_files, *args)
    mids = sorted(c for c in summary["checkpoints"] if "final" not in c)
    assert mids
    victim = mids[0]
    doc = load_checkpoint(victim)
    # finite rows whose spread overflows the cross entropy: a target at
    # -1e308 lies 2e308 below the row's log-sum-exp
    p = doc["model"]["p"]
    rows = np.tile([1e308, -1e308, 0.0], (p, 1))
    doc["model"]["tables"]["head1.table"] = _stored_rows(doc, "head1.table", range(p), rows)
    with open(victim, "w") as fh:
        fh.write(json.dumps(doc))
    rc, _, err = run(
        capsys,
        [
            "train",
            "--dataset", ds_path,
            "--tree", tree_path,
            "--checkpoint-dir", str(tmp_path / "ck2"),
            "--resume", victim,
            "--log", str(tmp_path / "resume.jsonl"),
            "--seed", "0",
            *args,
        ],
    )
    assert rc == 3
    assert err.startswith("numeric failure:")


@pytest.mark.parametrize(
    "code",
    ["1--2", "1-2-", "", "1-x", "1", "0-1-0", "0-3", "-1-0", "0--1", "9" * 30 + "-0"],
)
def test_malformed_code_exit_2_without_traceback(capsys, tmp_path, toy_files, code):
    tree_path, _ = toy_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "codec": {"p": 3, "K": 2},
        "records": [
            {"leaf": "cat", "code": "0-0", "depth": 2},
            {"leaf": "dog", "code": code, "depth": 2},
        ],
    }))
    for argv in (
        ["inspect", "--dataset", str(bad)],
        ["train", "--dataset", str(bad), "--tree", tree_path],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 2, err
        assert err.startswith("error: malformed dataset JSON: record 'dog'")
        assert "Traceback" not in err


@pytest.mark.parametrize("depth", [2**63, -(2**63) - 1])
def test_depth_outside_int64_exit_2_without_traceback(capsys, tmp_path, toy_files, depth):
    tree_path, _ = toy_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "codec": {"p": 3, "K": 2},
        "records": [
            {"leaf": "cat", "code": "0-0", "depth": 2},
            {"leaf": "dog", "code": "0-1", "depth": depth},
        ],
    }))
    for argv in (
        ["inspect", "--dataset", str(bad)],
        ["train", "--dataset", str(bad), "--tree", tree_path],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 2, err
        assert err.startswith(
            f"error: malformed dataset JSON: record 'dog' has depth {depth} outside [1, K]"
        )
        assert "Traceback" not in err


def test_dataset_leaf_missing_from_tree_exit_2(capsys, tmp_path, toy_files):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    doc = json.loads(open(ds_path).read())
    doc["records"][1]["leaf"] = "wolf"
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps(doc))
    common = ["--dataset", str(stray), "--tree", tree_path]
    ckpt = ["--checkpoint", os.path.join(ckdir, "ckpt-final.json")]
    for argv in (["train", *common], ["eval", *common, *ckpt], ["diagnose", *common, *ckpt]):
        rc, _, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("error:") and "wolf" in err
        assert "Traceback" not in err


def test_pipeline_builds_no_code_objects(capsys, tmp_path, toy_files, monkeypatch):
    """train, eval and diagnose read the dataset's arrays: none of them
    makes a PadicCode (one per record) on the way."""
    from hipan.padic import PadicCode

    def refuse(self):
        raise AssertionError("the pipeline built a PadicCode")

    monkeypatch.setattr(PadicCode, "__post_init__", refuse)
    tree_path, ds_path = toy_files
    for optimizer in ("gist", "adam"):
        _, ckdir = _train_toy(capsys, tmp_path, toy_files, "--optimizer", optimizer)
        common = [
            "--dataset", ds_path, "--tree", tree_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
        ]
        for command in ("eval", "diagnose"):
            rc, _, err = run(capsys, [command, *common])
            assert rc == 0, err


def test_only_diagnose_builds_the_code_index(capsys, tmp_path, toy_files, monkeypatch):
    """ingest, dataset loads, train and eval never build a CodeIndex;
    diagnose builds one, which serves all of its geometry checks."""
    from hipan.tree import CodeIndex

    built = []
    build = CodeIndex.__init__

    def counted(self, digits):
        built.append(len(digits))
        build(self, digits)

    monkeypatch.setattr(CodeIndex, "__init__", counted)
    tree_path, _ = toy_files
    ds_path = str(tmp_path / "ingested.json")
    rc, _, err = run(capsys, ["ingest", "--tree", tree_path, "--out", ds_path])
    assert rc == 0, err
    for optimizer in ("gist", "adam"):
        _, ckdir = _train_toy(capsys, tmp_path, (tree_path, ds_path), "--optimizer", optimizer)
        common = [
            "--dataset", ds_path, "--tree", tree_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
        ]
        rc, _, err = run(capsys, ["eval", *common])
        assert rc == 0, err
        assert built == []
        rc, _, err = run(capsys, ["diagnose", *common, "--out-dir", str(tmp_path / "diag")])
        assert rc == 0, err
        assert built == [3]
        built.clear()


def test_only_diagnose_computes_confidences(capsys, tmp_path, toy_files, monkeypatch):
    """Training epochs and eval read predictions only; each diagnose
    computes the reconstruction confidences once, for calibration."""
    from hipan import metrics

    computed = []
    compute = metrics.reconstruction_confidence

    def counted(model, pred):
        computed.append(len(pred))
        return compute(model, pred)

    monkeypatch.setattr(metrics, "reconstruction_confidence", counted)
    tree_path, ds_path = toy_files
    for optimizer in ("gist", "adam"):
        _, ckdir = _train_toy(capsys, tmp_path, toy_files, "--optimizer", optimizer)
        assert computed == []
        common = [
            "--dataset", ds_path, "--tree", tree_path,
            "--checkpoint", os.path.join(ckdir, "ckpt-final.json"),
        ]
        rc, _, err = run(capsys, ["eval", *common])
        assert rc == 0, err
        assert computed == []
        for _ in range(2):
            rc, _, err = run(capsys, ["diagnose", *common, "--out-dir", str(tmp_path / "diag")])
            assert rc == 0, err
        assert computed == [3, 3]
        computed.clear()


def _with(table, field, value, message):
    """table with field set to value, and the error that loading it must
    raise, after the table's name."""
    return {**table, field: value}, message


def _restream(table, raw, message):
    """table with its XOR replaced by a zlib stream of the bytes raw."""
    return _with(table, "values", _deflated(raw), message)


def _inflated(table):
    return zlib.decompress(base64.b64decode(table["values"]))


# each takes head1.table, which stores two rows of p = 3 values, and the
# init's bits of those rows
@pytest.mark.parametrize(
    "corrupt",
    [
        # truncated by whole base64 quanta: the stream stops short
        lambda t, init: _with(t, "values", t["values"][:-4], "does not inflate"),
        lambda t, init: _with(t, "values", t["values"][:-1], "is not valid base64"),
        lambda t, init: _with(
            t, "values", t["values"][:10] + "!" + t["values"][11:], "is not valid base64"
        ),
        lambda t, init: _with(  # int16 row indices read as float64
            t, "rows", "float64:" + t["rows"].partition(":")[2], "holds 4 bytes, not whole"
        ),
        lambda t, init: _with(
            t, "rows", "complex:" + t["rows"].partition(":")[2], "has unknown array type"
        ),
        lambda t, init: _restream(  # half a value short
            t, _inflated(t)[:-4], "inflates to 44 bytes, not whole float64 values"
        ),
        lambda t, init: _restream(  # three values too many
            t, _inflated(t) + bytes(24), "inflates past the 48 bytes of its rows"
        ),
        lambda t, init: _with(t, "values", 7, "is not an array text"),
        lambda t, init: _with(
            t, "values", base64.b64encode(b"not a zlib stream").decode(),
            "does not inflate (Error -3",
        ),
        lambda t, init: _restream(  # whole values, but not whole rows
            t, _inflated(t)[:-8], "has 5 values, wanted (2, 3)"
        ),
        lambda t, init: _restream(  # rows that come out NaN, +inf and -inf
            t, (init ^ np.array([np.nan, np.inf, -np.inf, 0, 1, 2]).view("<u8")).tobytes(),
            "holds a non-finite value",
        ),
        lambda t, init: _restream(  # 16 MiB of zeros, which inflating stops past 48 bytes
            t, bytes(1 << 24), "inflates past the 48 bytes of its rows"
        ),
    ],
)
def test_corrupt_table_exit_2_naming_it(capsys, tmp_path, toy_files, corrupt):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    doc = load_checkpoint(os.path.join(ckdir, "ckpt-final.json"))
    tables = doc["model"]["tables"]
    # training moved both rows that the toy's digit 0 selects
    assert tables["head1.table"]["rows"] == pack_array("rows", np.arange(2))
    init = new_model(ModelConfig(CodecParams(3, 2)), seed=doc["model"]["seed"]).heads[1].table
    init_bits = init[:2].ravel().view(np.uint64)
    tables["head1.table"], message = corrupt(tables["head1.table"], init_bits)
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    rc, _, err = run(
        capsys, ["eval", "--dataset", ds_path, "--tree", tree_path, "--checkpoint", str(bad)]
    )
    assert rc == 2
    assert err.startswith(f"error: table head1.table {message}"), err
    assert "Traceback" not in err


def _head_rows(rows, n_values):
    """A head1.table storing rows (any floats) and an XOR of n_values
    zeros."""
    return {
        "rows": pack_array("head1.table", np.array(rows, dtype=float)),
        "values": _deflated(bytes(8 * n_values)),
    }


# the toy tree's alphabet is p = 3, so a table row holds 3 values
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("head1.table", _head_rows([3], 3), "table head1.table names row 3, not one of its 3 rows"),
        ("head1.table", _head_rows([-1], 3), "table head1.table names row -1,"),
        ("head1.table", _head_rows([0.5], 3), "table head1.table names row 0.5,"),
        (
            "head1.table", _head_rows([1, 1], 6),
            "table head1.table row indices do not strictly ascend",
        ),
        (
            "head1.table", _head_rows([2, 0], 6),
            "table head1.table row indices do not strictly ascend",
        ),
        ("head1.table", _head_rows([0, 2], 5), "table head1.table has 5 values, wanted (2, 3)"),
        (
            "head1.table", _head_rows([0, 2], 9),
            "table head1.table inflates past the 48 bytes of its rows",
        ),
        (
            "head1.table", {"rows": "int16:", "values": "!"},
            "table head1.table is not valid base64",
        ),
        ("head1.table", {"rows": "int16:"}, "table head1.table is not a rows/values pair"),
        (
            "head1.table", "int16:AAAAAAAAAAAAAAAAAAAA",
            "table head1.table is not a rows/values pair",
        ),
        ("init", "gaussian-v1", "unknown init scheme 'gaussian-v1'"),
        ("init", None, "unknown init scheme None"),
    ],
)
def test_malformed_v3_table_exit_2_naming_it(capsys, tmp_path, toy_files, field, value, message):
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    doc = load_checkpoint(os.path.join(ckdir, "ckpt-final.json"))
    assert doc["format"] == FORMAT and doc["model"]["p"] == 3
    if field == "init":
        doc["model"]["init"] = value
    else:
        doc["model"]["tables"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    rc, _, err = run(
        capsys, ["eval", "--dataset", ds_path, "--tree", tree_path, "--checkpoint", str(bad)]
    )
    assert rc == 2
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["eval", "diagnose", "resume"])
def test_non_finite_latent_exit_2_naming_it(capsys, tmp_path, toy_files, command, bad):
    # a stored table row holding NaN or infinity: no NaN report, no
    # numeric failure mid-training, and nothing written
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    doc = load_checkpoint(os.path.join(ckdir, "ckpt-final.json"))
    doc["model"]["tables"]["head1.table"] = _stored_rows(doc, "head1.table", [1], [0.0, bad, 1.0])
    poisoned = tmp_path / "poisoned.json"
    poisoned.write_text(canonical_json(doc))
    out = tmp_path / "out"
    common = ["--dataset", ds_path, "--tree", tree_path]
    argv = {
        "eval": ["eval", *common, "--checkpoint", str(poisoned), "--out", str(out)],
        "diagnose": ["diagnose", *common, "--checkpoint", str(poisoned), "--out", str(out)],
        "resume": [
            "train", *common, "--checkpoint-dir", str(out), "--resume", str(poisoned),
            "--log", str(tmp_path / "resume.jsonl"), "--seed", "0",
        ],
    }[command]
    rc, stdout, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: table head1.table holds a non-finite value")
    assert stdout == ""
    assert not out.exists()
    assert not (tmp_path / "resume.jsonl").exists()


@pytest.fixture(scope="module")
def adam_run(tmp_path_factory):
    """The checkpoint directory of a short Adam run on the toy tree: one
    checkpoint per epoch, written without a run configuration, so any
    resume configuration matches them."""
    ds = encode_tree(loads_tree(TOY_TEXT))
    ck = tmp_path_factory.mktemp("adam")
    plan = TrainPlan(uniform_plan(ds.codec.K, epochs=2).phases, checkpoint_interval=1)
    train(new_model(ModelConfig(ds.codec), seed=0), ds, AdamConfig(), plan, checkpoint_dir=str(ck))
    return ck


@pytest.fixture(scope="module")
def adam_checkpoint(adam_run):
    """The final checkpoint of adam_run, which holds no moments."""
    return load_checkpoint(str(adam_run / "ckpt-final.json"))


@pytest.fixture(scope="module")
def adam_mid_checkpoint(adam_run):
    """adam_run's checkpoint after the first epoch of its first phase,
    which holds that phase's moments."""
    doc = load_checkpoint(str(adam_run / "ckpt-00001.json"))
    assert doc["cursor"] == {"phase": 0, "epoch": 1} and doc["optim"]["m"]
    return doc


def _refused(capsys, tmp_path, toy_files, command, doc):
    """Run command ("eval", "diagnose" or "resume") on checkpoint doc;
    asserts exit 2, nothing on stdout, no traceback and no file written,
    and returns stderr."""
    tree_path, ds_path = toy_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, log = tmp_path / "out", tmp_path / "log.jsonl"
    common = ["--dataset", ds_path, "--tree", tree_path]
    argv = {
        "eval": ["eval", *common, "--checkpoint", str(bad), "--out", str(out)],
        "diagnose": ["diagnose", *common, "--checkpoint", str(bad), "--out", str(out)],
        "resume": [
            "train", *common, "--checkpoint-dir", str(out), "--resume", str(bad),
            "--log", str(log), "--optimizer", "adam",
        ],
    }[command]
    rc, stdout, err = run(capsys, argv)
    assert rc == 2, err
    assert stdout == ""
    assert "Traceback" not in err
    assert not out.exists() and not log.exists()
    return err


def _retired_form(doc, form):
    """A copy of a format v4 checkpoint document labelled as a file of an
    earlier format: v1 or v2 (an earlier head layout, no init scheme),
    v3 (whole rows over init "uniform-v3"), or v4 stored against init
    "uniform-v1" or "uniform-v2"."""
    old = json.loads(json.dumps(doc))
    if form.startswith("uniform-"):
        old["model"]["init"] = form
    else:
        old["format"] = f"hipan-checkpoint-{form}"
        old["model"]["format"] = f"hipan-model-{form}"
        if form != "v3":
            del old["model"]["init"]
    return old


@pytest.mark.parametrize(
    "form, message",
    [
        ("v1", "unknown checkpoint format 'hipan-checkpoint-v1'"),
        ("v2", "unknown checkpoint format 'hipan-checkpoint-v2'"),
        ("v3", "unknown checkpoint format 'hipan-checkpoint-v3'; this version reads "
               "'hipan-checkpoint-v4'"),
        ("uniform-v1", "unknown init scheme 'uniform-v1'; this version reads 'uniform-v3'"),
        ("uniform-v2", "unknown init scheme 'uniform-v2'; this version reads 'uniform-v3'"),
    ],
)
@pytest.mark.parametrize("command", ["eval", "diagnose", "resume"])
def test_retired_checkpoint_exit_2_naming_its_format(
    capsys, tmp_path, toy_files, adam_checkpoint, command, form, message
):
    err = _refused(capsys, tmp_path, toy_files, command, _retired_form(adam_checkpoint, form))
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("part, with_shape", [("m", False), ("u", False), ("m", True)])
def test_resume_refuses_a_moment_array_the_model_lacks(
    capsys, tmp_path, toy_files, adam_mid_checkpoint, part, with_shape
):
    # a well-formed moment array under a name the model has no array for
    doc = json.loads(json.dumps(adam_mid_checkpoint))
    optim = doc["optim"]
    optim[part]["bogus"] = optim[part]["head0.anchor"]
    if with_shape:
        optim["shapes"]["bogus"] = [3]
    err = _refused(capsys, tmp_path, toy_files, "resume", doc)
    named = "shapes" if with_shape else part
    assert err.startswith(
        f"error: malformed checkpoint optim: {named} 'bogus' names no model array"
    )


def _set(doc, path, value):
    """A copy of doc with the field at path (a tuple of keys) set to value."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("model",), [], "malformed checkpoint: 'model' must be dict, got []"),
        *(
            (("model", key), None, f"malformed checkpoint model: {key!r} must be int, got None")
            for key in ("p", "K", "K_heads", "seed")
        ),
        (("model", "tau"), [1], "malformed checkpoint model: 'tau' must be int or float, got [1]"),
        (("model", "tables"), ["int16:"], "malformed checkpoint model: 'tables' must be dict"),
        (("model", "tables"), {}, "malformed checkpoint model: 'head0.table' is missing"),
        (
            ("model", "tables", "bogus"), {"rows": "int16:", "values": "eAEDAAAAAAE="},
            "malformed checkpoint model: table 'bogus' names no model array",
        ),
    ],
)
@pytest.mark.parametrize("command", ["eval", "diagnose", "resume"])
def test_malformed_model_state_exit_2_naming_the_field(
    capsys, tmp_path, toy_files, adam_checkpoint, command, path, value, message
):
    err = _refused(capsys, tmp_path, toy_files, command, _set(adam_checkpoint, path, value))
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "path, value, message",
    [
        # the toy tree's default plan runs 2 phases: 4 and 100 epochs
        (("cursor",), None, "malformed checkpoint: 'cursor' must be dict, got None"),
        (("cursor", "phase"), "1", "malformed checkpoint cursor: 'phase' must be int, got '1'"),
        (("cursor", "epoch"), 1.0, "malformed checkpoint cursor: 'epoch' must be int, got 1.0"),
        (("optim",), [], "malformed checkpoint: 'optim' must be dict, got []"),
        (("optim", "t"), None, "malformed checkpoint optim: 't' must be int, got None"),
        (("optim", "m"), [], "malformed checkpoint optim: 'm' must be dict, got []"),
        (("optim", "shapes"), [], "malformed checkpoint optim: 'shapes' must be dict, got []"),
        *(
            (
                ("optim", "shapes", "head0.anchor"), bad,
                f"malformed checkpoint optim: shapes 'head0.anchor' must be [3], got {bad!r}",
            )
            for bad in ("3", [3.0], [2])
        ),
        (
            ("optim", "shapes", "extra"), "3",
            "malformed checkpoint optim: shapes 'extra' must be a list of sizes, got '3'",
        ),
        (
            ("cursor",), {"phase": 99, "epoch": 0},
            "resume cursor (phase 99, epoch 0) lies outside the plan, whose 2 phases run "
            "[4, 100] epochs",
        ),
        (("cursor",), {"phase": 1, "epoch": -5}, "resume cursor (phase 1, epoch -5) lies outside"),
        (("cursor",), {"phase": 1, "epoch": 100}, "resume cursor (phase 1, epoch 100) lies"),
        (("cursor",), {"phase": 2, "epoch": 1}, "resume cursor (phase 2, epoch 1) lies outside"),
        (("cursor",), {"epoch": 0}, "malformed checkpoint cursor: 'phase' is missing"),
        # a negative step count would zero Adam's first bias correction; a
        # negative streak would delay the lattice's patience stop.  Both
        # are refused before the optimizer kind is compared
        (("optim", "t"), -1, "malformed checkpoint optim: 't' must be >= 0, got -1"),
        (
            ("optim",), {"kind": "gist", "t": 3, "streak": -1},
            "malformed checkpoint optim: 'streak' must be >= 0, got -1",
        ),
    ],
)
def test_malformed_resume_state_exit_2_naming_the_field(
    capsys, tmp_path, toy_files, adam_checkpoint, path, value, message
):
    err = _refused(capsys, tmp_path, toy_files, "resume", _set(adam_checkpoint, path, value))
    assert err.startswith(f"error: {message}")


# the toy tree's codec is p = 3, K = 2
@pytest.mark.parametrize("p, K", [(2, 2), (5, 2), (7, 2), (3, 3)])
def test_resume_with_a_model_of_another_codec_exit_2(
    capsys, tmp_path, toy_files, adam_checkpoint, p, K
):
    # no configuration hash: the codec check is what stops the resume
    model = new_model(ModelConfig(CodecParams(p, K)), seed=0)
    save_checkpoint(str(tmp_path / "other.json"), model, optim_state=adam_checkpoint["optim"])
    doc = load_checkpoint(str(tmp_path / "other.json"))
    assert doc["config_hash"] is None
    err = _refused(capsys, tmp_path, toy_files, "resume", doc)
    assert err.startswith(
        f"error: dataset codec CodecParams(p=3, K=2) does not match model "
        f"CodecParams(p={p}, K={K})"
    )


def _resume_with_log(capsys, tmp_path, toy_files, doc, log):
    tree_path, ds_path = toy_files
    ck = tmp_path / "resume.json"
    ck.write_text(json.dumps(doc))
    return run(
        capsys,
        [
            "train", "--dataset", ds_path, "--tree", tree_path, "--resume", str(ck),
            "--checkpoint-dir", str(tmp_path / "out"), "--log", str(log), "--optimizer", "adam",
        ],
    )


@pytest.mark.parametrize("through_link", [False, True])
def test_refused_resume_leaves_the_log_path_as_it_was(
    capsys, tmp_path, toy_files, adam_checkpoint, through_link
):
    # the log is opened at its first write, so a refused run neither
    # truncates nor removes what the --log path holds, a symlink included
    held = tmp_path / "held.jsonl"
    held.write_text('{"epoch": 0}\n')
    log = tmp_path / "link.jsonl" if through_link else held
    if through_link:
        log.symlink_to(held)
    doc = _set(adam_checkpoint, ("cursor",), {"phase": 99, "epoch": 0})
    rc, stdout, err = _resume_with_log(capsys, tmp_path, toy_files, doc, log)
    assert rc == 2 and err.startswith("error: resume cursor (phase 99, epoch 0) lies outside")
    assert stdout == "" and "Traceback" not in err
    assert log.is_symlink() == through_link
    assert held.read_text() == '{"epoch": 0}\n'


def test_resume_that_logs_no_epoch_leaves_an_empty_log(
    capsys, tmp_path, toy_files, adam_checkpoint
):
    # the final cursor runs no epoch; the log is still written, empty
    log = tmp_path / "log.jsonl"
    log.write_text("older run\n")
    rc, stdout, err = _resume_with_log(capsys, tmp_path, toy_files, adam_checkpoint, log)
    assert rc == 0, err
    assert json.loads(stdout)["checkpoints"][-1].endswith("ckpt-final.json")
    assert log.read_text() == ""


def test_ingest_ignores_a_byte_order_mark(capsys, tmp_path):
    text = "a\tr\nr\t-\nb\tr\n"
    outputs = []
    for i, variant in enumerate([text, "\ufeff" + text, "\ufeffr\t-\na\tr\nb\tr\n"]):
        tree_path, out_path = tmp_path / f"t{i}.tsv", tmp_path / f"d{i}.json"
        tree_path.write_text(variant, encoding="utf-8")
        rc, _, err = run(capsys, ["ingest", "--tree", str(tree_path), "--out", str(out_path)])
        assert rc == 0, err
        outputs.append(out_path.read_bytes())
    assert outputs[1] == outputs[2] == outputs[0]
    assert [r["leaf"] for r in json.loads(outputs[0])["records"]] == ["a", "b"]


def test_eval_and_diagnose_read_each_input_once(capsys, tmp_path, toy_files, monkeypatch):
    # bench/spans.py times these readers by the module attributes the
    # commands call; one read each, and name lookups use the parser's
    # table rather than a name_to_id dict of their own
    tree_path, ds_path = toy_files
    _, ckdir = _train_toy(capsys, tmp_path, toy_files)
    calls, trees = Counter(), []

    def loads_tree(text, _f=hipan.tree.loads_tree):
        calls["loads_tree"] += 1
        trees.append(_f(text))
        return trees[-1]

    def dataset_from_json(text, _f=hipan.cli.dataset_from_json):
        calls["dataset_from_json"] += 1
        return _f(text)

    def ids_of(self, names, _f=hipan.tree.TreeSpec.ids_of):
        calls["ids_of"] += 1
        return _f(self, names)

    monkeypatch.setattr(hipan.tree, "loads_tree", loads_tree)
    monkeypatch.setattr(hipan.cli, "dataset_from_json", dataset_from_json)
    monkeypatch.setattr(hipan.tree.TreeSpec, "ids_of", ids_of)
    for command in ("eval", "diagnose"):
        calls.clear()
        trees.clear()
        argv = [command, "--dataset", ds_path, "--tree", tree_path,
                "--checkpoint", os.path.join(ckdir, "ckpt-final.json")]
        rc, _, err = run(capsys, argv)
        assert rc == 0, err
        assert calls["loads_tree"] == calls["dataset_from_json"] == 1
        assert calls["ids_of"] >= 1
        assert "name_to_id" not in vars(trees[0])
