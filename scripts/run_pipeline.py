"""End-to-end pipeline on a synthetic dataset.

Generates data, pretrains and freezes the extractor, trains the prototype
model, then writes the evaluation CSV and the patch gallery, each step one
``protodensity`` subcommand. Everything lands under --out:

    data/          images, annotations, density maps, manifest
    extractor/     frozen extractor weights and pretraining curve
    run/           checkpoints, history.csv, projections.csv
    eval.csv       per-image counting errors
    gallery/       top-k patches, previews, similarity maps

Default configuration matches the package defaults (128x128 scenes,
counts 5-80, K=4+4). Expect roughly 2-3 minutes on one core.
"""

import argparse
import os
import sys

from protodensity.cli import main as protodensity


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output root directory")
    parser.add_argument("--config", help="dotted-key config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        default=[], help="override one config key")
    parser.add_argument("--n-train", default="100")
    parser.add_argument("--n-test", default="50")
    parser.add_argument("--gallery-k", default="3")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    config = (["--config", args.config] if args.config else []) + \
        [flag for item in args.set for flag in ("--set", item)]
    data, extractor, run, model = (os.path.join(args.out, d) for d in
                                   ("data", "extractor", "run", "run/checkpoint_final"))
    steps = [
        ["gen-data", *config, "--out", data, "--n-train", args.n_train,
         "--n-test", args.n_test],
        ["pretrain", *config, "--data", data, "--out", extractor],
        ["train", *config, "--data", data, "--extractor", extractor, "--out", run],
        ["eval", "--model", model, "--data", data,
         "--out", os.path.join(args.out, "eval.csv")],
        ["explain", "--model", model, "--data", data,
         "--out", os.path.join(args.out, "gallery"), "--global-k", args.gallery_k],
    ]
    for step in steps:
        code = protodensity(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
