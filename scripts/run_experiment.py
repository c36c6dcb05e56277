"""Run one of the paper's experiments as a sequence of protodensity subcommands.

Each generates data/ and pretrains one frozen extractor/ under --out, then:

    pipeline  trains run/ (checkpoints, history.csv, projections.csv), writes
              eval.csv (per-image errors) and gallery/ (top-k patches);
              about 18 s on a 2-core AMD EPYC, BLAS on one thread, at the
              default config
    ablation  trains full loss, no-diversity and no-prototype-feature at
              every seed: ablation.csv (MAE, distances, localization rates
              per run) and distance_table.txt (seed-averaged intra-group
              prototype distances, also printed); nine runs by default
    sweeps    trains one model per K in --k and one per tau in --tau:
              sweep_k.csv, sweep_tau.csv and a tau_<tau>_seed<seed>/ gallery
              per tau run

A flag is forwarded only when given, so each default is the subcommand's
own (``protodensity <command> --help``), save sweeps' --seeds 0.

    python3 scripts/run_experiment.py pipeline --out runs/demo

``scripts/tiny.cfg`` runs any experiment in seconds, for checking that a
change leaves every output byte-identical (``scripts/digest_run.py A B``):

    python3 scripts/run_experiment.py pipeline --config scripts/tiny.cfg \\
        --n-train 12 --n-test 6 --out runs/tiny
"""

import argparse
import os
import sys

# this checkout's package, never an installed one
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from protodensity.cli import main as protodensity  # noqa: E402

# experiment: the flags it adds to --out, --config, --set, --n-train, --n-test
_FLAGS = {"pipeline": ["--gallery-k"], "ablation": ["--seeds"],
          "sweeps": ["--k", "--tau", "--seeds"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, flags in _FLAGS.items():
        p = sub.add_parser(experiment)
        p.add_argument("--out", required=True, help="output root directory")
        p.add_argument("--config", help="dotted-key config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override one config key (repeatable)")
        for flag in ("--n-train", "--n-test", *flags):
            p.add_argument(flag)
    sub.choices["sweeps"].set_defaults(seeds="0")  # sweep-k's own is 0,1,2,3,4
    return parser.parse_args(argv)


def _given(args, *names, **renamed) -> list[str]:
    """``--name value`` for each option given; ``renamed`` maps an option to
    the subcommand flag it is forwarded as."""
    flags = {name: "--" + name.replace("_", "-") for name in names} | renamed
    return [item for name, flag in flags.items() if getattr(args, name) is not None
            for item in (flag, getattr(args, name))]


def steps(args):
    """The experiment's ``protodensity`` argument lists, in order."""
    config = _given(args, "config") + [flag for item in args.set for flag in ("--set", item)]
    data, extractor, run, model = (os.path.join(args.out, d) for d in
                                   ("data", "extractor", "run", "run/checkpoint_final"))
    trained = [*config, "--data", data, "--extractor", extractor]
    yield ["gen-data", *config, "--out", data, *_given(args, "n_train", "n_test")]
    yield ["pretrain", *config, "--data", data, "--out", extractor]
    if args.experiment == "pipeline":
        yield ["train", *trained, "--out", run]
        yield ["eval", "--model", model, "--data", data,
               "--out", os.path.join(args.out, "eval.csv")]
        yield ["explain", "--model", model, "--data", data,
               "--out", os.path.join(args.out, "gallery"), *_given(args, gallery_k="--global-k")]
    elif args.experiment == "ablation":
        yield ["ablate", *trained, "--out", args.out, *_given(args, "seeds")]
    else:
        yield ["sweep-k", *trained, "--out", args.out, *_given(args, "seeds", "k")]
        yield ["sweep-tau", *trained, "--out", args.out, *_given(args, "seeds", "tau")]


def main(argv=None) -> int:
    args = parse_args(argv)
    for step in steps(args):
        code = protodensity(step)
        if code:
            return code
    if args.experiment == "ablation":
        with open(os.path.join(args.out, "distance_table.txt")) as f:
            print(f.read(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
