import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersheaf import cli
from hypersheaf.cli import main, manifest_argv, read_arc_list
from hypersheaf.blockmatrix import DENSE_EXPORT_CAP
from hypersheaf.hypergraph import DirectedHypergraph, Hyperedge, read_hypergraph, write_hypergraph
from hypersheaf.laplacian import parse_dense_matrix

SRC = Path(__file__).resolve().parents[1] / "src"

def run(argv):
    return main(argv)


def gen_small(tmp_path, name="toy", seed=3, inter=4):
    prefix = tmp_path / name
    code = run([
        "gen-synthetic", "--n", "20", "--classes", "2", "--hmin", "2", "--hmax", "4",
        "--intra", "3", "--inter", str(inter), "--seed", str(seed), "--out", str(prefix),
    ])
    assert code == 0
    return prefix


def test_gen_synthetic_writes_dataset_and_manifest(tmp_path):
    prefix = gen_small(tmp_path)
    for suffix in (".hg", ".features", ".labels", ".splits"):
        assert (tmp_path / ("toy" + suffix)).exists()
    manifest = (tmp_path / "toy.manifest").read_text()
    assert "subcommand=gen-synthetic" in manifest
    assert "num_hyperedges=10" in manifest


def test_transform_graph_star(tmp_path):
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("4\n1 2\n1 3\n1 4\n")
    out = tmp_path / "hg.txt"
    assert run(["transform-graph", "--in", str(arcs), "--out", str(out)]) == 0
    H = read_hypergraph(out)
    assert H.num_hyperedges == 1
    assert H.hyperedges[0].tail == (0,)
    assert H.hyperedges[0].head == (1, 2, 3)


def test_transform_graph_no_arcs(tmp_path):
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("3\n")
    out = tmp_path / "hg.txt"
    assert run(["transform-graph", "--in", str(arcs), "--out", str(out)]) == 0
    assert read_hypergraph(out).num_hyperedges == 0


def test_transform_output_is_forward_directed(tmp_path):
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("5\n1 2\n2 3\n2 4\n5 1\n")
    out = tmp_path / "hg.txt"
    run(["transform-graph", "--in", str(arcs), "--out", str(out)])
    H = read_hypergraph(out)
    # one hyperedge per vertex with outgoing arcs, each with a singleton tail
    assert H.num_hyperedges == 3
    assert all(len(e.tail) == 1 for e in H.hyperedges)


def test_read_arc_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    for text, match in [
        ("3\n1 2 3\n", "malformed line 2"),
        ("3\n\n1 2\n1 b\n", "malformed line 4"),
        ("three\n1 2\n", "malformed line 1"),
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{bad}: {match}"):
            read_arc_list(bad)


def test_pipeline_closure_transform_build_laplacian(tmp_path):
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("4\n1 2\n2 3\n3 4\n4 1\n")
    hg = tmp_path / "hg.txt"
    run(["transform-graph", "--in", str(arcs), "--out", str(hg)])
    out = tmp_path / "L.txt"
    code = run([
        "build-laplacian", "--in", str(hg), "--q", "0.25", "--stalk-dim", "1",
        "--sheaf", "trivial", "--normalized", "--out", str(out),
    ])
    assert code == 0
    L = parse_dense_matrix(out.read_text())
    assert L.shape == (4, 4)
    assert np.max(np.abs(L - L.conj().T)) < 1e-12


@pytest.mark.parametrize("suffix, text, command, match", [
    ("", "2\n1 x\n", "transform-graph", "malformed line 2"),
    ("", "a 2\n", "build-laplacian", "header line 1"),
    (".labels", "1 0\n2 1 7\n", "train", "malformed label line 2"),
    (".labels", "1 -1\n", "train", "negative class -1 on line 1"),
    (".labels", "1 0\n1 1\n", "q-sweep", "second label for vertex 1 on line 2"),
], ids=["arcs", "hypergraph", "labels", "labels-negative", "labels-repeat"])
def test_malformed_input_file_is_usage_error_naming_its_line(tmp_path, capsys, suffix, text, command, match):
    if suffix:  # one file of a generated dataset
        source, path = ["--data", str(gen_small(tmp_path))], tmp_path / ("toy" + suffix)
    else:
        path = tmp_path / "bad.txt"
        source = ["--in", str(path)]
    path.write_text(text)
    out = ["--metrics-out"] if command == "train" else ["--out"]
    assert run([command, *source, *out, str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {match}")
    assert "Traceback" not in err


def test_non_unit_weight_file_is_usage_error(tmp_path, capsys):
    hg = tmp_path / "weighted.hg"
    hg.write_text("3 2\ne 1 : 1 2 |\ne 2.5 : 2 | 3\n")
    out = tmp_path / "L.txt"
    assert run(["build-laplacian", "--in", str(hg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {hg}: hyperedge line 2 has weight 2.5;")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_spectral_report(tmp_path):
    report = tmp_path / "report.txt"
    code = run(["verify-spectral", "--trials", "10", "--seed", "1", "--report", str(report)])
    assert code == 0
    assert "failures=0" in report.read_text()


def test_verify_spectral_manifest_records_environment_and_replays(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    argv = [
        "verify-spectral", "--trials", "5", "--seed", "7",
        "--report", str(tmp_path / "r1.txt"), "--manifest", str(tmp_path / "m1.manifest"),
    ]
    assert run(argv) == 0
    lines = (tmp_path / "m1.manifest").read_text().splitlines()
    assert f"python={platform.python_version()}" in lines
    assert f"numpy={np.__version__}" in lines
    assert f"blas={cli.blas_library()}" in lines
    assert "blas_threads=OPENBLAS_NUM_THREADS=1,OMP_NUM_THREADS=unset,MKL_NUM_THREADS=unset" in lines
    assert "exit_code=0" in lines
    replay = manifest_argv(tmp_path / "m1.manifest")
    assert replay == argv
    replay[replay.index(str(tmp_path / "r1.txt"))] = str(tmp_path / "r2.txt")
    replay[replay.index(str(tmp_path / "m1.manifest"))] = str(tmp_path / "m2.manifest")
    assert run(replay) == 0
    assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()


def test_verify_spectral_manifest_records_a_failing_exit(tmp_path, monkeypatch):
    suite = cli.verify_spectral_suite

    def failing_suite(H, A, *, rng):
        return dataclasses.replace(suite(H, A, rng=rng), failures=["bound: injected"])

    monkeypatch.setattr(cli, "verify_spectral_suite", failing_suite)
    manifest = tmp_path / "m.manifest"
    argv = ["verify-spectral", "--trials", "2", "--report", str(tmp_path / "r.txt"), "--manifest", str(manifest)]
    assert run(argv) == 1
    lines = manifest.read_text().splitlines()
    assert "failures=2" in lines and "exit_code=1" in lines
    assert "reason=2 of 2 instances failed a spectral check" in lines


def test_blas_library_names_numpys_build_or_unknown(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert cli.blas_library() == f"{blas['name']} {blas['version']}"

    def old_show_config():  # a numpy without the ``mode`` argument
        return None

    monkeypatch.setattr(np, "show_config", old_show_config)
    assert cli.blas_library() == "unknown"


def manifest_lines(path):
    return path.read_text().splitlines()


def test_every_subcommand_records_its_exit_code(tmp_path):
    prefix = gen_small(tmp_path)
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("3\n1 2\n2 3\n")
    runs = {
        "gen-synthetic": ["--n", "10", "--classes", "2", "--hmin", "2", "--hmax", "3",
                          "--intra", "2", "--inter", "2", "--out", str(tmp_path / "g")],
        "transform-graph": ["--in", str(arcs), "--out", str(tmp_path / "t.hg")],
        "build-laplacian": ["--in", str(prefix) + ".hg", "--out", str(tmp_path / "L.txt")],
        "verify-spectral": ["--trials", "1", "--report", str(tmp_path / "v.txt")],
        "theorem-check": ["--trials", "1"],
        "train": ["--data", str(prefix), "--layers", "1", "--hidden", "2", "--epochs", "1",
                  "--metrics-out", str(tmp_path / "metrics.csv")],
        "q-sweep": ["--data", str(prefix), "--grid", "0", "--layers", "1", "--hidden", "2",
                    "--epochs", "1", "--out", str(tmp_path / "sweep.csv")],
    }
    for subcommand, args in runs.items():
        manifest = tmp_path / f"{subcommand}.manifest"
        assert run([subcommand, *args, "--manifest", str(manifest)]) == 0
        lines = manifest_lines(manifest)
        assert lines[0] == f"subcommand={subcommand}"
        assert "exit_code=0" in lines and f"blas={cli.blas_library()}" in lines
        assert not any(line.startswith("reason=") for line in lines)


# Runs stopped after parsing: the command, with ``{out}`` an empty folder and
# ``{data}`` a generated dataset prefix, and the dataset files it has read.
FAILING_RUNS = {
    "gen-synthetic": ("gen-synthetic --n 7 --out {out}/g", []),
    "transform-graph": ("transform-graph --in {out}/missing.txt --out {out}/t.hg", []),
    "build-laplacian": ("build-laplacian --in {data}.hg --q 0.5 --out {out}/L.txt", []),
    "verify-spectral": ("verify-spectral --trials -2 --report {out}/v.txt", []),
    "theorem-check": ("theorem-check --trials -1 --report {out}/t.txt", []),
    "train": ("train --data {data} --q 0.5 --metrics-out {out}/m.csv", []),
    "q-sweep": ("q-sweep --data {data} --grid 0,0.5 --out {out}/s.csv", []),
    "train-probe-without-layers": (
        "train --data {data} --layers 0 --eigencheck-every 1 --metrics-out {out}/m.csv",
        [".hg", ".features", ".labels", ".splits"],
    ),
    "build-laplacian-unwritable": (
        "build-laplacian --in {data}.hg --out {out}/nodir/L.txt --manifest {out}/b.manifest", [".hg"],
    ),
    "train-unwritable": (
        "train --data {data} --epochs 1 --metrics-out {out}/nodir/m.csv --manifest {out}/t.manifest",
        [".hg", ".features", ".labels", ".splits"],
    ),
}


def test_build_laplacian_above_the_dense_cap_is_usage_error(tmp_path, capsys):
    size = DENSE_EXPORT_CAP + 1
    write_hypergraph(DirectedHypergraph(size, (Hyperedge((0,), (1,)),)), tmp_path / "big.hg")
    assert run(["build-laplacian", "--in", str(tmp_path / "big.hg"), "--out", str(tmp_path / "L.txt")]) == 2
    err = capsys.readouterr().err
    assert f"error: dense export of a {size}x{size} matrix exceeds the cap" in err
    assert "use apply_laplacian(bundle, x) for matrix-free evaluation" in err
    assert not (tmp_path / "L.txt").exists()


@pytest.mark.parametrize("case", list(FAILING_RUNS))
def test_failing_run_writes_one_manifest_with_its_reason(tmp_path, capsys, case):
    data, out = gen_small(tmp_path), tmp_path / "run"
    out.mkdir()
    command, read = FAILING_RUNS[case]
    argv = [token.format(out=out, data=data) for token in command.split()]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # the manifest is the only file the run leaves
    (manifest,) = out.iterdir()
    assert manifest.suffix == ".manifest"
    lines = manifest_lines(manifest)
    assert lines[0] == f"subcommand={argv[0]}"
    assert lines[-2:] == ["exit_code=2", "reason=" + err.removeprefix("error: ").rstrip("\n")]
    assert not any(line.startswith("output.") for line in lines)
    assert [line.split("=")[0] for line in lines if line.startswith("input.")] == [
        f"input.{data}{suffix}" for suffix in read
    ]


def test_unwritable_manifest_is_one_usage_error(tmp_path, capsys):
    manifest = tmp_path / "missing" / "m.manifest"
    argv = ["verify-spectral", "--trials", "1", "--report", str(tmp_path / "r.txt"), "--manifest", str(manifest)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(manifest) in err


def test_entry_point_reports_an_unwritable_output_in_one_line(tmp_path):
    # neither the Laplacian nor its default manifest can be written
    data = gen_small(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "hypersheaf.cli", "build-laplacian", "--in", f"{data}.hg",
         "--out", str(tmp_path / "missing" / "L.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "missing").exists()


def test_theorem_check_manifest_names_the_failed_suite(tmp_path, monkeypatch):
    checks = cli.run_all_theorem_checks

    def one_failing(trials, seed):
        results = checks(trials=trials, seed=seed)
        results[1] = dataclasses.replace(results[1], max_deviation=1.0)
        return results

    monkeypatch.setattr(cli, "run_all_theorem_checks", one_failing)
    manifest = tmp_path / "m.manifest"
    assert run(["theorem-check", "--trials", "1", "--manifest", str(manifest)]) == 1
    lines = manifest_lines(manifest)
    name = checks(trials=1, seed=0)[1].name
    assert "passed=False" in lines and "exit_code=1" in lines
    assert f"reason=failed: {name}" in lines


def diverging_dataset(tmp_path):
    """A dataset whose first feature is NaN, so the first epoch's loss is too."""
    prefix = gen_small(tmp_path)
    features = tmp_path / "toy.features"
    rows = features.read_text().splitlines()
    rows[0] = " ".join(["nan", *rows[0].split()[1:]])
    features.write_text("\n".join(rows) + "\n")
    return prefix


def test_diverging_train_records_exit_code_and_reason(tmp_path, capsys):
    prefix = diverging_dataset(tmp_path)
    metrics, manifest = tmp_path / "metrics.csv", tmp_path / "m.manifest"
    code = run([
        "train", "--data", str(prefix), "--layers", "1", "--hidden", "2", "--epochs", "3",
        "--metrics-out", str(metrics), "--manifest", str(manifest),
    ])
    assert code == 3
    assert "error: non-finite loss nan at epoch 1" in capsys.readouterr().err
    assert not metrics.exists()
    lines = manifest_lines(manifest)
    assert "exit_code=3" in lines and "reason=non-finite loss nan at epoch 1" in lines
    assert not any(line.startswith("output.") for line in lines)


def test_diverging_q_sweep_records_exit_code_and_reason(tmp_path, capsys):
    prefix = diverging_dataset(tmp_path)
    out, manifest = tmp_path / "sweep.csv", tmp_path / "m.manifest"
    code = run([
        "q-sweep", "--data", str(prefix), "--grid", "0.1,0.2", "--layers", "1", "--hidden", "2",
        "--epochs", "3", "--out", str(out), "--manifest", str(manifest),
    ])
    assert code == 3
    assert "error: q=0.1: non-finite loss nan at epoch 1" in capsys.readouterr().err
    assert out.read_text() == "q,test_acc\n"
    lines = manifest_lines(manifest)
    assert "exit_code=3" in lines and "reason=q=0.1: non-finite loss nan at epoch 1" in lines
    assert any(line.startswith(f"output.{out}=") for line in lines)


def test_theorem_check_passes(tmp_path, capsys):
    report = tmp_path / "theorems.txt"
    code = run(["theorem-check", "--trials", "5", "--seed", "0", "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert text.count("PASS") == 5
    assert "not PSD" in text


def test_theorem_check_zero_trials(tmp_path, capsys):
    code = run(["theorem-check", "--trials", "0", "--manifest", str(tmp_path / "m.txt")])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_train_writes_metrics_and_manifest(tmp_path):
    prefix = gen_small(tmp_path)
    metrics = tmp_path / "metrics.csv"
    code = run([
        "train", "--data", str(prefix), "--layers", "1", "--stalk-dim", "2",
        "--hidden", "4", "--epochs", "4", "--patience", "10", "--light",
        "--residual", "--metrics-out", str(metrics),
    ])
    assert code == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_acc"
    assert len(lines) == 6  # header + 4 epochs + test_acc line
    assert lines[-1].startswith("test_acc,")


def test_train_writes_lambda_max_column_when_probing(tmp_path):
    prefix = gen_small(tmp_path)
    metrics = tmp_path / "metrics.csv"
    code = run([
        "train", "--data", str(prefix), "--layers", "1", "--stalk-dim", "2",
        "--hidden", "4", "--epochs", "4", "--patience", "10", "--eigencheck-every", "2",
        "--metrics-out", str(metrics),
    ])
    assert code == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_acc,lambda_max"
    probes = [line.split(",")[4] for line in lines[1:5]]
    assert probes[0] == probes[2] == ""
    assert all(0.0 <= float(lam) <= 1 + 1e-6 for lam in probes[1::2])


def test_negative_eigencheck_interval_is_usage_error(tmp_path, capsys):
    prefix = gen_small(tmp_path)
    code = run([
        "train", "--data", str(prefix), "--epochs", "2", "--eigencheck-every", "-2",
        "--metrics-out", str(tmp_path / "m.csv"),
    ])
    assert code == 2
    assert "eigencheck_every" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["train", "q-sweep"])
@pytest.mark.parametrize("flag, value, field", [
    ("--hidden", "0", "hidden_width"),
    ("--classifier-width", "0", "classifier_width"),
    ("--epochs", "-1", "max_epochs"),
    ("--patience", "-1", "patience"),
    ("--lr", "-0.5", "learning_rate"),
    ("--lr", "nan", "learning_rate"),
    ("--wd", "-1", "weight_decay"),
    ("--dropout", "-0.5", "dropout_rate"),
])
def test_bad_model_size_is_usage_error(tmp_path, capsys, command, flag, value, field):
    prefix = gen_small(tmp_path)
    out = tmp_path / "out.csv"
    code = run([
        command, "--data", str(prefix), flag, value,
        "--metrics-out" if command == "train" else "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_train_replay_is_bit_identical(tmp_path):
    prefix = gen_small(tmp_path)
    argv = [
        "train", "--data", str(prefix), "--layers", "1", "--stalk-dim", "2",
        "--hidden", "4", "--epochs", "3", "--patience", "10", "--seed", "5",
        "--metrics-out", str(tmp_path / "m1.csv"), "--manifest", str(tmp_path / "m1.manifest"),
    ]
    assert run(argv) == 0
    replay = manifest_argv(tmp_path / "m1.manifest")
    replay[replay.index(str(tmp_path / "m1.csv"))] = str(tmp_path / "m2.csv")
    replay[replay.index(str(tmp_path / "m1.manifest"))] = str(tmp_path / "m2.manifest")
    assert run(replay) == 0
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()


def test_q_sweep_table(tmp_path):
    prefix = gen_small(tmp_path)
    out = tmp_path / "sweep.csv"
    code = run([
        "q-sweep", "--data", str(prefix), "--grid", "0,0.1", "--layers", "1",
        "--stalk-dim", "2", "--hidden", "4", "--epochs", "3", "--patience", "5",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,test_acc"
    assert len(lines) == 3


def test_q_sweep_single_point(tmp_path):
    prefix = gen_small(tmp_path)
    out = tmp_path / "sweep1.csv"
    code = run([
        "q-sweep", "--data", str(prefix), "--grid", "0.25", "--layers", "1",
        "--stalk-dim", "2", "--hidden", "4", "--epochs", "2", "--patience", "5",
        "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_q_sweep_takes_no_charge_flag(tmp_path, capsys):
    # the grid sets every model's charge
    prefix = gen_small(tmp_path)
    assert run(["q-sweep", "--data", str(prefix), "--q", "0.2", "--out", str(tmp_path / "s.csv")]) == 2
    assert "unrecognized arguments: --q 0.2" in capsys.readouterr().err
    assert not list(tmp_path.glob("s.csv*"))


def test_shared_config_charge_is_skipped_by_q_sweep(tmp_path):
    prefix = gen_small(tmp_path)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("q=0.1\nlayers=1\nhidden=2\nepochs=1\n")
    out = tmp_path / "sweep.csv"
    assert run(["--config", str(cfg), "q-sweep", "--data", str(prefix), "--grid", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("0,")


def test_config_file_sets_defaults_and_cli_overrides(tmp_path):
    prefix = gen_small(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("layers=1\nstalk_dim=2\nhidden=4\nepochs=2\npatience=5\nlight=true\n")
    metrics = tmp_path / "m.csv"
    code = run([
        "--config", str(cfg), "train", "--data", str(prefix), "--epochs", "3",
        "--metrics-out", str(metrics),
    ])
    assert code == 0
    lines = metrics.read_text().splitlines()
    assert len(lines) == 5  # header + 3 epochs (cli --epochs overrides config) + test line


def test_one_config_file_serves_every_subcommand(tmp_path):
    # layers is a train flag: verify-spectral skips it and takes trials
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("layers=1\nlight=true\ntrials=2\n")
    report = tmp_path / "spectral.txt"
    assert run(["--config", str(cfg), "verify-spectral", "--report", str(report)]) == 0
    assert report.read_text().startswith("trials=2\n")


def test_config_key_of_no_subcommand_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("trials=2\nlayer=1\n")
    assert main(["--config", str(cfg), "verify-spectral", "--report", str(tmp_path / "r.txt")]) == 2
    err = capsys.readouterr().err
    assert "'layer'" in err and str(cfg) in err, err
    assert not list(tmp_path.glob("*.manifest"))


def test_usage_error_exit_code():
    assert main(["train"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2


def test_missing_input_file_is_usage_error(tmp_path):
    assert main(["build-laplacian", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 2


def test_config_flag_without_path_is_usage_error(capsys):
    assert main(["--config"]) == 2
    assert "error: --config requires a file path" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg"), "gen-synthetic"]) == 2
    assert "error: " in capsys.readouterr().err


def test_manifest_replay_with_spaced_path(tmp_path):
    folder = tmp_path / "with space"
    folder.mkdir()
    argv = [
        "gen-synthetic", "--n", "20", "--classes", "2", "--hmin", "2", "--hmax", "4",
        "--intra", "3", "--inter", "4", "--seed", "3", "--out", str(folder / "a"),
    ]
    assert main(argv) == 0
    replay = manifest_argv(folder / "a.manifest")
    assert replay == argv
    replay[-1] = str(folder / "b")
    assert main(replay) == 0
    assert (folder / "a.hg").read_bytes() == (folder / "b.hg").read_bytes()
