"""Prototype-count and diversity-threshold sweeps.

Trains one model per K in --k (equal split between groups) and one per tau
in --tau, all sharing a dataset and a frozen extractor, each step one
``protodensity`` subcommand that prints its MAE grid. Everything lands
under --out:

    data/                  images, annotations, density maps, manifest
    extractor/             the shared frozen extractor
    sweep_k.csv            MAE per (K, seed)
    sweep_tau.csv          MAE per (tau, seed)
    tau_<tau>_seed<seed>/  a patch gallery per tau run, for side-by-side
                           qualitative comparison
"""

import argparse
import os
import sys

from protodensity.cli import main as protodensity


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", help="dotted-key config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        default=[])
    parser.add_argument("--k", default="2,4,6,8")
    parser.add_argument("--tau", default="0,0.4,0.8")
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--n-train", default="100")
    parser.add_argument("--n-test", default="50")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    config = (["--config", args.config] if args.config else []) + \
        [flag for item in args.set for flag in ("--set", item)]
    data, extractor = os.path.join(args.out, "data"), os.path.join(args.out, "extractor")
    shared = ["--data", data, "--extractor", extractor, "--out", args.out,
              "--seeds", args.seeds]
    steps = [
        ["gen-data", *config, "--out", data, "--n-train", args.n_train,
         "--n-test", args.n_test],
        ["pretrain", *config, "--data", data, "--out", extractor],
        ["sweep-k", *config, *shared, "--k", args.k],
        ["sweep-tau", *config, *shared, "--tau", args.tau],
    ]
    for step in steps:
        code = protodensity(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
