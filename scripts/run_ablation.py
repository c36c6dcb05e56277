"""Loss-term ablation: full loss vs no-diversity vs no-prototype-feature.

Generates a dataset, pretrains one frozen extractor, then trains every
variant at every seed on both, each step one ``protodensity`` subcommand,
and prints the seed-averaged prototype distance table. With the default
three seeds this is nine training runs, roughly 10 minutes on one core.
Everything lands under --out:

    data/                images, annotations, density maps, manifest
    extractor/           the shared frozen extractor
    ablation.csv         per run: MAE, distances, localization rates
    distance_table.txt   seed-averaged intra-group prototype distances

The expected directions: dropping the diversity term collapses the minimum
intra-group prototype distances, and dropping the prototype-to-feature
term pushes background prototypes onto cell regions.
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
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated training seeds")
    parser.add_argument("--n-train", default="100")
    parser.add_argument("--n-test", default="50")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    config = (["--config", args.config] if args.config else []) + \
        [flag for item in args.set for flag in ("--set", item)]
    data, extractor = os.path.join(args.out, "data"), os.path.join(args.out, "extractor")
    steps = [
        ["gen-data", *config, "--out", data, "--n-train", args.n_train,
         "--n-test", args.n_test],
        ["pretrain", *config, "--data", data, "--out", extractor],
        ["ablate", *config, "--data", data, "--extractor", extractor,
         "--out", args.out, "--seeds", args.seeds],
    ]
    for step in steps:
        code = protodensity(step)
        if code:
            return code
    with open(os.path.join(args.out, "distance_table.txt")) as f:
        print(f.read(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
