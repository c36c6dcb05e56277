"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

For every data seed below ``workloads.SEED_SPACE`` this stores the two-epoch
pretraining MSE curve of the `pretrain` workload, the per-epoch total loss
of the `train` workload's `train` call and the test MAE the `infer`
workload's checkpoint scores, in perfbench/reference.json. Record
them only from a commit whose outputs are trusted (they were recorded at the
commit that added the benchmark); a change that moves them beyond the
tolerances in workloads.py fails the benchmark's checks.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench  # sets the BLAS thread variables before numpy loads

import workloads


def main() -> int:
    pkg = bench.import_package()
    training, model_mod = pkg["training"], pkg["model"]
    datagen, evaluate = pkg["datagen"], pkg["evaluate"]
    reference = {"pretrain_curve": {}, "train_loss": {}, "test_mae": {}}
    work = os.path.join(bench.ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    try:
        for seed in range(workloads.SEED_SPACE):
            run = workloads.Run(pkg=pkg, work=os.path.join(work, str(seed)), seed=seed,
                                n_ops=1, reference=reference)
            dataset = workloads.generate(run, run.path("data"))
            _, curve = training.pretrain_extractor(dataset, workloads.pretrain_config(run))
            dataset, extractor, features = workloads.train_setup(run, run.path("train"))
            model = model_mod.CountModel(model_mod.ModelConfig(), extractor, seed=run.data_seed)
            _, history = training.train(model, dataset, workloads.train_config(run),
                                        feature_cache=features)
            data_dir, ckpt = workloads.infer_setup(run, run.path("infer"))
            report = evaluate.mae(model_mod.load_checkpoint(ckpt),
                                  datagen.load_dataset(data_dir).test)
            reference["pretrain_curve"][str(seed)] = [float(v) for v in curve]
            reference["train_loss"][str(seed)] = [
                r.total for r in history.reports + history.calibration_reports]
            reference["test_mae"][str(seed)] = report.mae
            shutil.rmtree(run.work)
            print(f"seed {seed}: curve {curve} test MAE {report.mae!r}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(bench.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
