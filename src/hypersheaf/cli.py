"""Command-line entry point for reproducible experiment runs.

Every subcommand honors ``--seed``, emits exactly one ``key=value`` manifest
recording its arguments, input digests, output paths, duration, the Python
and numpy versions, the BLAS library and thread settings, and its exit code
with the reason for a non-zero one, and is bit-reproducible from that
manifest.  Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric
divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import shlex
import sys
import time
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


def write_manifest(
    path: Path,
    subcommand: str,
    argv: list[str],
    inputs: list[Path],
    outputs: list[Path],
    duration: float,
    extra: dict | None = None,
    *,
    exit_code: int = EXIT_OK,
    reason: str | None = None,
) -> None:
    """Write the run's manifest; ``reason`` says why ``exit_code`` is non-zero."""
    lines = [
        f"subcommand={subcommand}",
        "argv=" + shlex.join(argv),
        f"duration_s={duration:.3f}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"blas={blas_library()}",
        "blas_threads=" + ",".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS),
    ]
    for p in inputs:
        lines.append(f"input.{p}={_digest(Path(p))}")
    for p in outputs:
        lines.append(f"output.{p}={_digest(Path(p))}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    lines.append(f"exit_code={exit_code}")
    if reason is not None:
        lines.append("reason=" + " ".join(reason.split()))
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


def _manifest_path(args, default_anchor: Path) -> Path:
    if args.manifest:
        return Path(args.manifest)
    return Path(str(default_anchor) + ".manifest")


def cmd_gen_synthetic(args, argv) -> int:
    t0 = time.time()
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
    paths = write_dataset(dataset, args.out)
    outputs = sorted(paths.values())
    write_manifest(
        _manifest_path(args, Path(args.out)),
        "gen-synthetic", argv, [], outputs, time.time() - t0,
        {"num_hyperedges": dataset.hypergraph.num_hyperedges},
    )
    print(f"wrote {len(outputs)} files with prefix {args.out} "
          f"({dataset.hypergraph.num_hyperedges} hyperedges)")
    return EXIT_OK


def cmd_transform_graph(args, argv) -> int:
    t0 = time.time()
    G = read_arc_list(args.input)
    H = from_directed_graph(G)
    write_hypergraph(H, args.out)
    write_manifest(
        _manifest_path(args, Path(args.out)),
        "transform-graph", argv, [Path(args.input)], [Path(args.out)], time.time() - t0,
        {"num_hyperedges": H.num_hyperedges},
    )
    print(f"wrote {H.num_hyperedges} forward directed hyperedges to {args.out}")
    return EXIT_OK


def _check_q_range(q: float) -> None:
    # the library accepts any finite charge; the command line sticks to the
    # tuned grid's interval
    if not (0.0 <= q <= 0.25):
        raise ValueError(f"q must lie in [0, 0.25], got {q}")


def cmd_build_laplacian(args, argv) -> int:
    t0 = time.time()
    _check_q_range(args.q)
    H = read_hypergraph(args.input)
    config = SheafConfig(q=args.q, d=args.stalk_dim, map_shape=args.sheaf)
    sheaf = build_fixed_sheaf(H, config, rng_seed=args.seed)
    bundle = build_laplacian(H, sheaf, normalized=args.normalized, jitter=args.jitter)
    Path(args.out).write_text(format_dense_matrix(bundle.L.to_dense()))
    write_manifest(
        _manifest_path(args, Path(args.out)),
        "build-laplacian", argv, [Path(args.input)], [Path(args.out)], time.time() - t0,
        {"normalized": args.normalized, "q": args.q},
    )
    print(f"wrote {'normalized ' if args.normalized else ''}Laplacian "
          f"({bundle.L.shape[0]}x{bundle.L.shape[1]}) to {args.out}")
    return EXIT_OK


def cmd_verify_spectral(args, argv) -> int:
    t0 = time.time()
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
    outputs = []
    if args.report:
        Path(args.report).write_text(text)
        outputs.append(Path(args.report))
    else:
        sys.stdout.write(text)
    anchor = Path(args.report) if args.report else Path("verify-spectral.out")
    code = EXIT_OK if not failures else EXIT_CHECK_FAILURE
    reason = f"{len(failures)} of {args.trials} instances failed a spectral check" if failures else None
    write_manifest(
        _manifest_path(args, anchor), "verify-spectral", argv, [], outputs,
        time.time() - t0, {"trials": args.trials, "failures": len(failures)},
        exit_code=code, reason=reason,
    )
    print(f"{args.trials} instances checked, {len(failures)} failures")
    return code


def cmd_theorem_check(args, argv) -> int:
    t0 = time.time()
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
    outputs = []
    if args.report:
        Path(args.report).write_text(text)
        outputs.append(Path(args.report))
    sys.stdout.write(text)
    anchor = Path(args.report) if args.report else Path("theorem-check.out")
    code = EXIT_CHECK_FAILURE if failed else EXIT_OK
    write_manifest(
        _manifest_path(args, anchor), "theorem-check", argv, [], outputs,
        time.time() - t0, {"trials": args.trials, "passed": not failed},
        exit_code=code, reason="failed: " + "; ".join(failed) if failed else None,
    )
    return code


def _model_config_from_args(args, q=None, seed=None) -> ModelConfig:
    return ModelConfig(
        num_layers=args.layers,
        stalk_dim=args.stalk_dim,
        hidden_width=args.hidden,
        q=args.q if q is None else q,
        sheaf_activation=args.sheaf_activation,
        map_shape=args.sheaf,
        residual=args.residual,
        light_mode=args.light,
        dropout_rate=args.dropout,
        hyperedge_aggregation=args.aggregation,
        classifier_width=args.classifier_width,
        seed=args.seed if seed is None else seed,
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


def _dataset_input_paths(prefix: str) -> list[Path]:
    p = Path(prefix)
    return [p.with_name(p.name + s) for s in DATASET_SUFFIXES.values()]


def cmd_train(args, argv) -> int:
    t0 = time.time()
    _check_q_range(args.q)
    config, budget = _model_config_from_args(args), _budget_from_args(args)
    dataset = read_dataset(args.data)
    out = Path(args.metrics_out)
    inputs = _dataset_input_paths(args.data)
    try:
        result = train(dataset, config, budget)
    except (TrainingDiverged, ValueError) as exc:
        write_manifest(
            _manifest_path(args, out), "train", argv, inputs, [], time.time() - t0,
            exit_code=_exit_code(exc), reason=str(exc),
        )
        raise
    _write_metrics(out, result, budget.eigencheck_every > 0)
    write_manifest(
        _manifest_path(args, out), "train", argv, inputs, [out], time.time() - t0,
        {"test_acc": f"{result.test_acc:.17g}", "best_epoch": result.best_epoch},
    )
    print(f"best val {result.best_val_acc:.4f} at epoch {result.best_epoch}; "
          f"test accuracy {result.test_acc:.4f}")
    return EXIT_OK


def cmd_q_sweep(args, argv) -> int:
    t0 = time.time()
    grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    for q in grid:
        _check_q_range(q)
    configs = [_model_config_from_args(args, q=q) for q in grid]
    budget = _budget_from_args(args)
    dataset = read_dataset(args.data)
    out = Path(args.out)
    rows = ["q,test_acc"]
    code, reason = EXIT_OK, None
    for q, config in zip(grid, configs):
        try:
            result = train(dataset, config, budget)
        except (TrainingDiverged, ValueError) as exc:
            # the table keeps the charges that finished
            code, reason = _exit_code(exc), f"q={q:g}: {exc}"
            print(f"error: {reason}", file=sys.stderr)
            break
        rows.append(f"{q:.17g},{result.test_acc:.17g}")
        print(f"q={q:g}: test accuracy {result.test_acc:.4f}")
    out.write_text("\n".join(rows) + "\n")
    write_manifest(
        _manifest_path(args, out), "q-sweep", argv, _dataset_input_paths(args.data),
        [out], time.time() - t0, {"grid": args.grid}, exit_code=code, reason=reason,
    )
    return code


# --- parser ----------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file prefix")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--stalk-dim", type=int, default=2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--q", type=float, default=0.1)
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
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("transform-graph", help="directed graph to forward directed hypergraph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
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
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_build_laplacian)

    p = sub.add_parser("verify-spectral", help="randomized spectral property suite")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_verify_spectral)

    p = sub.add_parser("theorem-check", help="operator recovery suites and the counterexample")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_theorem_check)

    p = sub.add_parser("train", help="train the diffusion model on a dataset prefix")
    _add_train_flags(p)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("q-sweep", help="train one model per charge value")
    _add_train_flags(p)
    p.add_argument("--grid", default="0,0.05,0.1,0.15,0.2,0.25")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_q_sweep)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Inject key=value file entries as flag defaults; command line wins."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config requires a file path")
    path = Path(argv[idx + 1])
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
        if flag in argv:
            continue
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, value])
    head = argv[: idx + 2]
    tail = argv[idx + 2 :]
    if not tail:
        raise ValueError("--config requires a subcommand")
    return head[:idx] + [tail[0]] + injected + tail[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_apply_config_file(parser, argv))
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        return args.func(args, argv)
    except (TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
