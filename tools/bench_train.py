"""Time `evalbench.train` steps on random weights.

Four cases:
- `dense-sgd` and `dense-adam`: 8x8 `mirror`, d 64, 4 heads, 2 encoder
  + 2 decoder layers, vocab 16, `PlanBundle.dense`, with SGD at lr 0.2
  and with Adam at lr 1e-3;
- `guided-16x16`: the config of perfbench's `train` workload (16x16 tokens,
  guide 8x8, 16 blocks, 2 decoder layers, other sizes at their defaults),
  SGD at lr 0.2, with fresh guided plans per step from a random guide,
  made by `evalbench.guided_plans` as in `train-sga`;
- `guided-32x32`: the same at the config of perfbench's `edit-hires`
  workload (32x32 tokens, guide 16x16, 64 blocks, 1 decoder layer).

Each repeat trains `--steps` steps from the same initial weights and seed;
milliseconds per step is the repeat's time over its steps, and the median
over repeats is reported, with the minor page faults per step over all
timed repeats (`minflt_per_step`). One more, untimed, repeat runs under
`tracemalloc`; its peak is `peak_mb`. The last line of output is one JSON
object that also holds, per case, a digest of the final weights and the
final loss, so two checkouts can be compared for equal outputs. Run from a
checkout's root, with that checkout's sources:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/bench_train.py --steps 30 --repeats 5
"""

import argparse
import hashlib
import json
import resource
import statistics
import time
import tracemalloc

from sgaedit import evalbench as eb
from sgaedit import model as mdl
from sgaedit.rng import substream


def dense_case(optimizer: str, lr: float, seed: int):
    cfg = mdl.ModelConfig(
        d=64, layers_enc=2, layers_dec=2, heads=4, vocab=16, vocab_map=4,
        grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=3, radius=1, ffw=256,
    )
    dense = mdl.PlanBundle.dense(cfg)
    init = mdl.init_weights(cfg, cfg.grid_high, substream(seed, "bench-train-dense"))
    task = eb.SyntheticTask("mirror", 8, 8, cfg.vocab, classes=cfg.vocab_map)
    return lambda steps: eb.train(init, task, steps, lr, seed, lambda step: dense, optimizer=optimizer)


def guided_case(cfg: mdl.ModelConfig, seed: int):
    guide = mdl.init_weights(cfg, cfg.grid_low, substream(seed, "bench-train-guide"))
    init = mdl.init_from_guiding(guide)
    task = eb.SyntheticTask("mirror", *cfg.grid_high, cfg.vocab, classes=cfg.vocab_map)
    task_low = eb.SyntheticTask("mirror", *cfg.grid_low, cfg.vocab, classes=cfg.vocab_map)
    plans = eb.guided_plans(guide, task_low, cfg, seed, "bench-train-plans")
    return lambda steps: eb.train(init, task, steps, 0.2, seed, plans)


def digest(weights: mdl.ModelWeights) -> str:
    sha = hashlib.sha256()
    for name in sorted(weights.params):
        sha.update(name.encode())
        sha.update(weights.params[name].tobytes())
    return sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30, help="training steps per repeat")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cases = {
        "dense-sgd": dense_case("sgd", 0.2, args.seed),
        "dense-adam": dense_case("adam", 1e-3, args.seed),
        "guided-16x16": guided_case(mdl.ModelConfig(grid_high=(16, 16), grid_low=(8, 8), blocks=16, layers_dec=2), args.seed),
        "guided-32x32": guided_case(mdl.ModelConfig(grid_high=(32, 32), grid_low=(16, 16), blocks=64), args.seed),
    }
    result = {"steps": args.steps, "cases": {}}
    for name, run in cases.items():
        ms = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            out = run(args.steps)
            ms.append(1000.0 * (time.perf_counter() - t0) / args.steps)
            print(f"{name} {ms[-1]:.2f} ms/step")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        tracemalloc.start()
        run(args.steps)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        result["cases"][name] = {
            "ms_per_step": ms,
            "median_ms": statistics.median(ms),
            "minflt_per_step": faults / (args.repeats * args.steps),
            "peak_mb": peak / 2**20,
            "final_loss": out.losses[-1],
            "weights_sha256": digest(out.weights),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
