"""Command line entry point for the full pipeline.

Subcommands: gen-data, pretrain, train, eval, explain, ablate, sweep-k,
sweep-tau, gradcheck. Exit code 0 on success, 1 on usage or validation
errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import build_run_config, write_resolved_config
from .datagen import generate_dataset, load_dataset
from .evaluate import mae, plan_grid, run_ablation, sweep_k, sweep_tau, write_eval_csv
from .interp import explain_location, export_prototype_gallery, write_explanation_csv
from .losses import (LossConfig, density_loss, diversity_loss,
                     proto_feature_loss, total_loss)
from .model import (CountModel, load_checkpoint, load_extractor, save_extractor,
                    similarity_from_distance)
from .tensor import (Tensor, conv1x1, distance_map, gradcheck_rel_error,
                     sigmoid, tsum, write_csv)
from .training import pretrain_extractor, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    """Bad command line; carries the message to print before exiting 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


# -- small parsers -------------------------------------------------------------


def _number_list(raw: str, kind=int) -> list:
    try:
        values = [kind(p.strip()) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated {kind.__name__}s, got {raw!r}") from exc
    if not values:
        raise UsageError(f"expected a comma-separated list, got {raw!r}")
    return values


def _loc(raw: str) -> tuple[int, int]:
    parts = _number_list(raw)
    if len(parts) != 2:
        raise UsageError(f"--loc expects H,W, got {raw!r}")
    return parts[0], parts[1]


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = build_run_config(args.config, args.set or ())
    # the counts and the scene are checked before the directory is made
    manifest = generate_dataset(config.scene, args.n_train, args.n_test, args.out)
    write_resolved_config(config, args.out, dict(command="gen-data", n_train=args.n_train,
                                                 n_test=args.n_test))
    print(f"wrote {args.n_train}+{args.n_test} samples, manifest {manifest}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    config = build_run_config(args.config, args.set or ())
    dataset = load_dataset(args.data)
    write_resolved_config(config, args.out, dict(command="pretrain", data=args.data))
    extractor, history = pretrain_extractor(dataset, config.train)
    save_extractor(extractor, args.out)
    write_csv(os.path.join(args.out, "pretrain_history.csv"), ("epoch", "mse"),
              enumerate(history, start=1))
    print(f"pretrained extractor: mse {history[0]:.6f} -> {history[-1]:.6f}, "
          f"saved to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = build_run_config(args.config, args.set or ())
    dataset = load_dataset(args.data)
    extractor = load_extractor(args.extractor)
    write_resolved_config(config, args.out, dict(command="train", data=args.data,
                                                 extractor=args.extractor))
    model = CountModel(config.model, extractor, seed=config.train.seed)
    model, history = train(model, dataset, config.train, out_dir=args.out)
    last = (history.calibration_val_mae or history.val_mae)[-1]
    print(f"trained {history.epochs} epochs, "
          f"{len(history.projections)} projections, final val MAE {last:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    report = mae(model, dataset.test,
                 config={f"model.{key}": value for key, value in vars(model.config).items()})
    write_eval_csv(report, args.out)
    print(f"test MAE {report.mae:.4f} over {len(report.rows)} images -> {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    # the arguments and the explanation are checked before anything is written;
    # the gallery checks its k and q before it creates --out
    if (args.image is None) != (args.loc is None):
        raise ValueError("--image ID and --loc H,W go together")
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    explanation = None
    if args.image is not None:
        by_id = {s.sample_id: s for s in dataset.all_samples}
        if args.image not in by_id:
            raise ValueError(f"no sample with id {args.image} in {args.data}")
        explanation = explain_location(model, by_id[args.image].image, *args.loc)
    patches = export_prototype_gallery(model, dataset, args.out,
                                       k=args.global_k, q=args.percentile)
    print(f"wrote {sum(len(p) for p in patches)} patches for "
          f"{len(patches)} prototypes to {args.out}")
    if explanation is not None:
        h, w = args.loc
        path = os.path.join(args.out,
                            f"explanation_img{args.image:04d}_h{h}w{w}.csv")
        write_explanation_csv(explanation, path)
        print(f"density at ({h},{w}) = {explanation.density:.6f} -> {path}")
    return EXIT_OK


# command: (help, grid flag, its default, default seeds, entry parser,
#           harness in evaluate.py, printed line format)
_GRIDS = {
    "ablate": ("loss-term ablation runs", "variants",
               "full,no_diversity,no_proto_feature", "0,1,2", str, run_ablation,
               "{0.variant:<17} seed {0.seed}: MAE {0.mae:.3f} min dist cell "
               "{0.distances.cell_min:.4f} bg {0.distances.bg_min:.4f}"),
    "sweep-k": ("prototype-count sweep", "k", "2,4,6,8", "0,1,2,3,4", int,
                sweep_k, "K={0[0]} seed {0[1]}: MAE {0[2]:.3f}"),
    "sweep-tau": ("diversity-threshold sweep", "tau", "0,0.4,0.8", "0", float,
                  sweep_tau, "tau={0[0]:g} seed {0[1]}: MAE {0[2]:.3f}"),
}


def cmd_grid(args) -> int:
    """ablate, sweep-k and sweep-tau: train a grid of runs on one dataset and
    one frozen extractor, every run from the resolved config's model."""
    _, flag, _, _, kind, harness, line = _GRIDS[args.command]
    values = _number_list(getattr(args, flag), kind)
    seeds = _number_list(args.seeds)
    config = build_run_config(args.config, args.set or ())
    plan_grid(harness, config.train, values, seeds, config.model)
    dataset = load_dataset(args.data)
    extractor = load_extractor(args.extractor)
    write_resolved_config(config, args.out, {"command": args.command, "data": args.data,
                                             "seeds": args.seeds, flag: getattr(args, flag)})
    rows = harness(dataset, config.train, values, seeds=seeds, extractor=extractor,
                   model_config=config.model, out_dir=args.out)
    for row in rows:
        print(line.format(row))
    return EXIT_OK


GRADCHECK_TOLERANCE = 1e-5


def run_gradcheck_suite(trials: int = 20, seed: int = 0) -> dict[str, float]:
    """Max finite-difference relative error per component over random small
    instances (B=2, K=4, d=8, 6x6 maps). Fewer than one trial checks nothing,
    so it raises ValueError naming ``--trials``."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    rng = np.random.default_rng([seed, 17])
    b, k, d, hw = 2, 4, 8, 6
    worst: dict[str, float] = {}

    def record(name: str, fn, at) -> None:
        leaf = Tensor(at, requires_grad=True)
        fn(leaf).backward()
        err = gradcheck_rel_error(fn, at, leaf.grad)
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(trials):
        pred = rng.normal(size=(b, hw, hw))
        gt = np.abs(rng.normal(size=(b, hw, hw)))
        record("density_loss", lambda t: density_loss(t, Tensor(gt)), pred)

        dist = np.abs(rng.normal(size=(b, k, hw, hw))) + 0.05
        record("proto_feature_loss",
               lambda t: proto_feature_loss(t, Tensor(gt), 2, 2), dist)

        protos = rng.uniform(0.05, 1.0, size=(k, d))
        record("diversity_loss", lambda t: diversity_loss(t, 2, 2, 0.1, 0.1),
               protos)

        config = LossConfig(tau_cell=0.1, tau_bg=0.1)
        record("total_loss", lambda t: total_loss(
            Tensor(pred), Tensor(gt), t, Tensor(protos), 2, 2, config)[0], dist)

        feats = rng.normal(size=(b, d, hw, hw))
        weight = rng.normal(size=(d, d)) * 0.4
        theta = rng.normal(size=(1, k)) * 0.1

        def end_to_end(t):
            processed = sigmoid(conv1x1(t, Tensor(weight)))
            distances = distance_map(processed, Tensor(protos))
            sims = similarity_from_distance(distances, 1e-4)
            return tsum(conv1x1(sims, Tensor(theta)))

        record("count_through_model", end_to_end, feats)
    return worst


def cmd_gradcheck(args) -> int:
    results = run_gradcheck_suite(trials=args.trials)
    failed = False
    for name, err in results.items():
        print(f"{name:<22} max rel err {err:.3e}")
        failed = failed or err > GRADCHECK_TOLERANCE
    if failed:
        print(f"FAIL: some gradients exceed {GRADCHECK_TOLERANCE:g}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"all gradients within {GRADCHECK_TOLERANCE:g}")
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_config_flags(parser) -> None:
    parser.add_argument("--config", help="dotted-key config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")


def build_parser() -> _Parser:
    parser = _Parser(prog="protodensity",
                     description="Prototype-based density-map cell counting.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=100)
    p.add_argument("--n-test", type=int, default=50)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pretrain and freeze the extractor")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train the counting model")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--extractor", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="counting MAE on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="patch galleries and explanations")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--global-k", type=int, default=3, dest="global_k")
    p.add_argument("--percentile", type=float, default=99)
    p.add_argument("--image", type=int, help="sample id to explain")
    p.add_argument("--loc", type=_loc, help="feature location H,W")
    p.set_defaults(func=cmd_explain)

    for command, (help_text, flag, default, seeds, *_) in _GRIDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_config_flags(p)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--extractor", required=True)
        p.add_argument(f"--{flag}", default=default)
        p.add_argument("--seeds", default=seeds)
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse would set an option before the subcommand aside and take
        # its value for the COMMAND
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            parser.error(f"{argv[0].split('=')[0]}: options go after the subcommand")
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage() + "a subcommand is required")
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
