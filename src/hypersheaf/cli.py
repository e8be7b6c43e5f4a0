"""Command-line entry point for reproducible experiment runs.

Every subcommand honors ``--seed`` and is bit-reproducible from its
``key=value`` manifest, which records its arguments, the digests of the
inputs it read and the outputs it wrote, its duration, the Python and numpy
versions, the BLAS library and thread settings, and its exit code with the
reason for a non-zero one.  Every run that gets past argument parsing writes
exactly one manifest, a failing one too (exit 2 from a bad value included);
an argparse error or an unreadable ``--config`` file comes before any output
path is known and writes none, and a manifest that cannot be written is a
usage error.  Exit codes: 0 success, 1 check failure, 2 usage error, 3
numeric divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import shlex
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DATASET_SUFFIXES, SyntheticConfig, generate_synthetic, read_dataset, write_dataset
from .hypergraph import DirectedGraph, from_directed_graph, read_hypergraph, write_hypergraph
from .laplacian import DEGREE_EPS, build_laplacian, format_dense_matrix
from .model import ModelConfig, TrainingBudget, TrainingDiverged, train
from .sheaf import SheafConfig, build_fixed_sheaf
from .spectral import CHECK_NAMES, random_instance, verify_spectral_suite
from .theorems import check_counterexample, run_all_theorem_checks

__all__ = ["main", "read_arc_list", "manifest_argv"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


def _exit_code(exc: Exception) -> int:
    """The exit code of a run stopped by ``exc``: divergence, else a usage error."""
    return EXIT_DIVERGENCE if isinstance(exc, TrainingDiverged) else EXIT_USAGE


# --- manifests ----------------------------------------------------------------


# the thread-count settings honoured by the BLAS builds numpy ships with
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_library() -> str:
    """Name and version of the BLAS numpy was built against, or ``unknown``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without a dict build report
        return "unknown"
    return " ".join(str(blas[key]) for key in ("name", "version") if blas.get(key)) or "unknown"


@dataclass
class Run:
    """What a subcommand has read and written so far, its extra manifest keys, and why it failed."""

    inputs: list[Path] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    reason: str | None = None


def write_manifest(path: Path, subcommand: str, argv: list[str], run: Run, duration: float, exit_code: int) -> None:
    """Write the manifest of ``run``; its ``reason`` says why ``exit_code`` is non-zero."""
    lines = [
        f"subcommand={subcommand}",
        "argv=" + shlex.join(argv),
        f"duration_s={duration:.3f}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"blas={blas_library()}",
        "blas_threads=" + ",".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS),
    ]
    lines += [f"input.{p}={_digest(p)}" for p in run.inputs]
    lines += [f"output.{p}={_digest(p)}" for p in run.outputs]
    lines += [f"{key}={value}" for key, value in run.extra.items()]
    lines.append(f"exit_code={exit_code}")
    if run.reason is not None:
        lines.append("reason=" + " ".join(run.reason.split()))
    Path(path).write_text("\n".join(lines) + "\n")


def manifest_argv(path: str | Path) -> list[str]:
    """Recover the recorded argument vector from a manifest for replay."""
    for line in Path(path).read_text().splitlines():
        if line.startswith("argv="):
            return shlex.split(line[len("argv=") :])
    raise ValueError(f"{path}: manifest has no argv record")


def read_arc_list(path: str | Path) -> DirectedGraph:
    """Arc-list file: first line ``n``, then one ``u v`` arc per line (1-based)."""
    lines = [(k, ln) for k, ln in enumerate(Path(path).read_text().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty arc list")
    rows = []
    for k, ln in lines:
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            row = []
        if len(row) != (2 if rows else 1):
            raise ValueError(f"{path}: malformed line {k}: {ln!r}")
        rows.append(row)
    (n,), *arcs = rows
    return DirectedGraph(n, tuple((u - 1, v - 1) for u, v in arcs))


# --- subcommand handlers ------------------------------------------------------
#
# Each handler records in ``run`` the inputs it has read and the outputs it has
# written, as it goes, and returns its exit code; ``main`` times it, turns an
# exception into an exit code and writes the manifest.


def cmd_gen_synthetic(args, run: Run) -> int:
    cfg = SyntheticConfig(
        n=args.n,
        classes=args.classes,
        h_min=args.hmin,
        h_max=args.hmax,
        intra_per_class=args.intra,
        inter_per_pair=args.inter,
        seed=args.seed,
    )
    dataset = generate_synthetic(cfg)
    run.outputs = sorted(write_dataset(dataset, args.out).values())
    run.extra["num_hyperedges"] = dataset.hypergraph.num_hyperedges
    print(f"wrote {len(run.outputs)} files with prefix {args.out} "
          f"({dataset.hypergraph.num_hyperedges} hyperedges)")
    return EXIT_OK


def cmd_transform_graph(args, run: Run) -> int:
    G = read_arc_list(args.input)
    run.inputs.append(Path(args.input))
    H = from_directed_graph(G)
    write_hypergraph(H, args.out)
    run.outputs.append(Path(args.out))
    run.extra["num_hyperedges"] = H.num_hyperedges
    print(f"wrote {H.num_hyperedges} forward directed hyperedges to {args.out}")
    return EXIT_OK


def _check_q_range(q: float) -> None:
    # the library accepts any finite charge; the command line sticks to the
    # tuned grid's interval
    if not (0.0 <= q <= 0.25):
        raise ValueError(f"q must lie in [0, 0.25], got {q}")


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def cmd_build_laplacian(args, run: Run) -> int:
    _check_q_range(args.q)
    H = read_hypergraph(args.input)
    run.inputs.append(Path(args.input))
    config = SheafConfig(q=args.q, d=args.stalk_dim, map_shape=args.sheaf)
    sheaf = build_fixed_sheaf(H, config, rng_seed=args.seed)
    dense = build_laplacian(H, sheaf, normalized=args.normalized, jitter=args.jitter).dense()
    Path(args.out).write_text(format_dense_matrix(dense))
    run.outputs.append(Path(args.out))
    run.extra.update(normalized=args.normalized, q=args.q)
    print(f"wrote {'normalized ' if args.normalized else ''}Laplacian "
          f"({dense.shape[0]}x{dense.shape[1]}) to {args.out}")
    return EXIT_OK


def cmd_verify_spectral(args, run: Run) -> int:
    _check_trials(args.trials)
    rng = np.random.default_rng(args.seed)
    passes = {name: 0 for name in CHECK_NAMES}
    applicable = {name: 0 for name in CHECK_NAMES}
    failures = []
    for trial in range(args.trials):
        H, A = random_instance(rng)
        report = verify_spectral_suite(H, A, rng=rng)
        for name, ok in report.checks.items():
            applicable[name] += 1
            passes[name] += ok
        if not report.passed:
            failures.append((trial, report))
    lines = [f"trials={args.trials}", f"failures={len(failures)}"]
    lines += [f"pass.{name}={passes[name]}/{applicable[name]}" for name in CHECK_NAMES]
    for trial, report in failures:
        lines.append(f"--- trial {trial}")
        lines.extend(report.failures)
        lines.append(report.instance_dump or "")
    text = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(text)
        run.outputs.append(Path(args.report))
    else:
        sys.stdout.write(text)
    run.extra.update(trials=args.trials, failures=len(failures))
    print(f"{args.trials} instances checked, {len(failures)} failures")
    if failures:
        run.reason = f"{len(failures)} of {args.trials} instances failed a spectral check"
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_theorem_check(args, run: Run) -> int:
    _check_trials(args.trials)
    results = run_all_theorem_checks(trials=args.trials, seed=args.seed)
    lines = [r.summary() for r in results]
    failed = [r.name for r in results if not r.passed]
    if args.trials > 0:
        ce = check_counterexample()
        status = "PASS" if ce.reproduces_non_psd else "FAIL"
        lines.append(
            f"{status} flipped-sign counterexample: matrix deviation "
            f"{ce.matrix_deviation:.3e}, min eigenvalue {ce.min_eig:.6f} (not PSD)"
        )
        if not ce.reproduces_non_psd:
            failed.append("flipped-sign counterexample")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.report:
        Path(args.report).write_text(text)
        run.outputs.append(Path(args.report))
    sys.stdout.write(text)
    run.extra.update(trials=args.trials, passed=not failed)
    if failed:
        run.reason = "failed: " + "; ".join(failed)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _model_config_from_args(args, q: float) -> ModelConfig:
    _check_q_range(q)
    return ModelConfig(
        num_layers=args.layers,
        stalk_dim=args.stalk_dim,
        hidden_width=args.hidden,
        q=q,
        sheaf_activation=args.sheaf_activation,
        map_shape=args.sheaf,
        residual=args.residual,
        light_mode=args.light,
        dropout_rate=args.dropout,
        hyperedge_aggregation=args.aggregation,
        classifier_width=args.classifier_width,
        seed=args.seed,
        dynamic_sheaf=args.dynamic_sheaf,
        left_projection=not args.no_left_projection,
        use_layer_norm=not args.no_layer_norm,
    )


def _budget_from_args(args) -> TrainingBudget:
    return TrainingBudget(
        max_epochs=args.epochs,
        patience=args.patience,
        learning_rate=args.lr,
        weight_decay=args.wd,
        eigencheck_every=args.eigencheck_every,
    )


def _write_metrics(path: Path, result, eigencheck: bool) -> None:
    """One row per epoch; a ``lambda_max`` column, empty between probes, when probing."""
    lines = ["epoch,train_loss,train_acc,val_acc" + (",lambda_max" if eigencheck else "")]
    for row in result.history:
        line = f"{row['epoch']},{row['train_loss']:.17g},{row['train_acc']:.17g},{row['val_acc']:.17g}"
        if eigencheck:
            line += f",{row['lambda_max']:.17g}" if "lambda_max" in row else ","
        lines.append(line)
    lines.append(f"test_acc,{result.test_acc:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _read_dataset(args, run: Run):
    dataset = read_dataset(args.data)
    p = Path(args.data)
    run.inputs += [p.with_name(p.name + s) for s in DATASET_SUFFIXES.values()]
    return dataset


def cmd_train(args, run: Run) -> int:
    config, budget = _model_config_from_args(args, args.q), _budget_from_args(args)
    result = train(_read_dataset(args, run), config, budget)
    out = Path(args.metrics_out)
    _write_metrics(out, result, budget.eigencheck_every > 0)
    run.outputs.append(out)
    run.extra.update(test_acc=f"{result.test_acc:.17g}", best_epoch=result.best_epoch)
    print(f"best val {result.best_val_acc:.4f} at epoch {result.best_epoch}; "
          f"test accuracy {result.test_acc:.4f}")
    return EXIT_OK


def cmd_q_sweep(args, run: Run) -> int:
    run.extra["grid"] = args.grid
    grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    configs = [_model_config_from_args(args, q) for q in grid]
    budget = _budget_from_args(args)
    dataset = _read_dataset(args, run)
    rows = ["q,test_acc"]
    code = EXIT_OK
    for q, config in zip(grid, configs):
        try:
            result = train(dataset, config, budget)
        except (TrainingDiverged, ValueError) as exc:
            # the table keeps the charges that finished
            code, run.reason = _exit_code(exc), f"q={q:g}: {exc}"
            break
        rows.append(f"{q:.17g},{result.test_acc:.17g}")
        print(f"q={q:g}: test accuracy {result.test_acc:.4f}")
    Path(args.out).write_text("\n".join(rows) + "\n")
    run.outputs.append(Path(args.out))
    return code


# --- parser ----------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file prefix")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--stalk-dim", type=int, default=2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--sheaf", choices=("diagonal", "full"), default="diagonal")
    p.add_argument("--sheaf-activation", choices=("sigmoid", "tanh", "none"), default="tanh")
    p.add_argument("--light", action="store_true")
    p.add_argument("--residual", action="store_true")
    p.add_argument("--dynamic-sheaf", action="store_true")
    p.add_argument("--dropout", type=float, default=0.0, help="sheaf dropout rate (0 disables)")
    p.add_argument("--no-left-projection", action="store_true")
    p.add_argument("--no-layer-norm", action="store_true")
    p.add_argument("--aggregation", choices=("mean", "sum"), default="mean")
    p.add_argument("--classifier-width", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--wd", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--eigencheck-every", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersheaf",
        description="Directed hypergraph Laplacians, spectral verification and sheaf diffusion training",
    )
    parser.add_argument("--config", help="key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a planted-direction benchmark")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--hmin", type=int, default=3)
    p.add_argument("--hmax", type=int, default=10)
    p.add_argument("--intra", type=int, default=30)
    p.add_argument("--inter", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("transform-graph", help="directed graph to forward directed hypergraph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform_graph)

    p = sub.add_parser("build-laplacian", help="assemble and export a Laplacian")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--stalk-dim", type=int, default=1)
    p.add_argument("--sheaf", choices=("trivial", "diagonal", "full"), default="trivial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--jitter", action="store_const", const=DEGREE_EPS, default=0.0,
                   help="add 1e-8 to every degree block, so singular ones invert")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_laplacian)

    p = sub.add_parser("verify-spectral", help="randomized spectral property suite")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify_spectral)

    p = sub.add_parser("theorem-check", help="operator recovery suites and the counterexample")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_theorem_check)

    p = sub.add_parser("train", help="train the diffusion model on a dataset prefix")
    _add_train_flags(p)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--metrics-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("q-sweep", help="train one model per charge value")
    _add_train_flags(p)
    p.add_argument("--grid", default="0,0.05,0.1,0.15,0.2,0.25")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_q_sweep)

    for p in sub.choices.values():
        p.add_argument("--manifest", help="manifest path (default: the main output path plus .manifest)")
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Inject key=value file entries as flag defaults; command line wins.  A key of
    other subcommands only is skipped, and one of no subcommand is an error."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config requires a file path")
    path = Path(argv[idx + 1])
    tail = argv[idx + 2 :]
    if not tail:
        raise ValueError("--config requires a subcommand")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in p._actions for f in a.option_strings} for name, p in subparsers.choices.items()}
    pairs = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    injected = []
    for key, value in pairs.items():
        flag = f"--{key.replace('_', '-')}"
        if not any(flag in known for known in flags.values()):
            raise ValueError(f"{path}: key {key!r} is not a flag of any subcommand")
        if flag in argv or flag not in flags.get(tail[0], ()):
            continue
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, value])
    return argv[:idx] + [tail[0]] + injected + tail[1:]


def _manifest_path(args) -> Path:
    values = vars(args)
    anchor = values.get("out") or values.get("metrics_out") or values.get("report") or f"{args.subcommand}.out"
    return Path(args.manifest or f"{anchor}.manifest")


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its manifest, whether the run succeeds or fails."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (ValueError, OSError) as exc:  # a bad --config: no manifest path is known yet
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    run, t0 = Run(), time.time()
    try:
        code = args.func(args, run)
    except (TrainingDiverged, ValueError, OSError) as exc:
        code, run.reason = _exit_code(exc), str(exc)
    try:
        write_manifest(_manifest_path(args), args.subcommand, argv, run, time.time() - t0, code)
    except OSError as exc:
        if code < EXIT_USAGE:  # else the run's own error is the one to report
            run.reason = str(exc)
        code = EXIT_USAGE
    if code >= EXIT_USAGE:
        print(f"error: {run.reason}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
