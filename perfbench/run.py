"""End-to-end benchmark of `sgaedit`: edits and training, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload edit-hires --seed 1 --seconds 20 --trace 0

Each run builds its inputs from the seed, sets up checkpoints in a child
process (`train-guide` and `train-sga` at a small step count, repeated),
then calls `sgaedit.cli.main` in-process for `--seconds` seconds of timed
operations and checks every output. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced operations and
reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import os

# Pin the environment before numpy is imported, here and in the set-up child:
# one BLAS thread (faster than the default at these sizes and keeps compute
# threads at or under nproc), and no worker-count override.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SGA_DETERMINISTIC", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 150

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("edit_s", "s"),
    ("candidate_s", "s"),
    ("top_logprob", "nats"),
    ("guide_step_ms", "ms"),
    ("sga_step_ms", "ms"),
    ("final_loss", "nats"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
)

# traced functions and the per-op figures reported for each
LAYERS = (
    ("sampler.guide_and_plan", ("s",)),
    ("sampler.autoregressive_edit", ("s",)),
    ("model.encoder_forward", ("calls", "self_s")),
    ("model.decoder_forward", ("calls", "s", "self_s", "rows")),
    ("attention.dense_attention", ("calls", "s", "score_entries")),
    ("sga.build_sparse_mask", ("calls", "s", "entries")),
    ("sga.sparse_attention", ("calls", "s", "score_flops")),
    ("tape.masked_softmax", ("s",)),
    ("tape.GradTape.backward", ("s",)),
    ("evalbench.train", ("s",)),
    ("model.guiding_forward", ("s",)),
    ("sampler.plans_from_maps", ("s",)),
    ("sampler.topk_sample", ("calls", "s")),
    ("compositing.tokens_to_image", ("s",)),
    ("compositing.laplacian_blend", ("s",)),
    ("quantizer.encode_patches", ("s",)),
    ("quantizer.quantize", ("s",)),
    ("images.read_pnm", ("s",)),
    ("images.write_pnm", ("s",)),
    ("model.load_checkpoint", ("s",)),
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed operation seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)  # set-up child only
    return p


def _cli(argv) -> int:
    """One in-process `sgaedit` command; its chatter is kept off our stdout."""
    from sgaedit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _mean_tail(values: list, n: int = 10) -> float:
    tail = values[-n:]
    return sum(tail) / len(tail)


# ---------------------------------------------------------------------------
# set-up (child process)
# ---------------------------------------------------------------------------


def setup(workload, seed: int, work: Path) -> dict:
    """Synthesize inputs and build checkpoints and assets, SETUP_REPS times."""
    import checks
    import workloads as wl

    steps = workload.setup_train
    reps = []
    failed = 0
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = wl.write_inputs(workload, seed, work / "inputs")
        cfg_path = wl.write_config(work / "setup.json", wl.config(workload, work / "ckpt", steps))
        t1 = time.perf_counter()
        rc_guide = _cli(["train-guide", "--config", cfg_path])
        t2 = time.perf_counter()
        rc_sga = _cli(["train-sga", "--config", cfg_path, "--guide", work / "ckpt" / "guide"])
        t3 = time.perf_counter()
        problems = [f"exit {rc}" for rc in (rc_guide, rc_sga) if rc != 0]
        if not problems:
            problems += checks.check_losses(work / "ckpt" / "guide" / "loss.csv", steps["steps"])
            problems += checks.check_losses(work / "ckpt" / "sga" / "loss_stage0.csv", steps["stage_steps"])
        for problem in problems:
            print(f"set-up check failed: {problem}", file=sys.stderr)
        failed += bool(problems)
        reps.append(
            {
                "setup_s": t3 - t0,
                "guide_step_ms": 1000 * (t2 - t1) / steps["steps"],
                "sga_step_ms": 1000 * (t3 - t2) / steps["stage_steps"],
            }
        )
    if failed == SETUP_REPS:
        raise RuntimeError("every set-up repetition failed")
    out = {key: statistics.median(r[key] for r in reps) for key in reps[0]}
    out["reps"] = reps
    out["final_loss"] = _mean_tail(checks.read_losses(work / "ckpt" / "sga" / "loss_stage0.csv"))
    out["inputs"] = {k: str(v) for k, v in inputs.items()}
    out["config"] = str(cfg_path)
    out["attempted"] = 2 * SETUP_REPS
    out["failed"] = failed
    return out


def run_setup_child(args, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve())]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-into", str(work)]
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads((work / "setup_result.json").read_text())


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------


class Bench:
    """One workload's timed operation, output checks and samples."""

    def __init__(self, workload, seconds: float, work: Path, setup_result: dict):
        import workloads as wl

        self.workload = workload
        self.seconds = seconds
        self.inputs = {k: Path(v) for k, v in setup_result["inputs"].items()}
        if workload.trains:
            self.cfg = wl.config(workload, work / "timed", workload.timed_train)
            self.cfg_path = wl.write_config(work / "timed.json", self.cfg)
            self.out = work / "timed"
        else:
            self.cfg_path = Path(setup_result["config"])
            self.cfg = json.loads(self.cfg_path.read_text())
            self.out = work / "ckpt"
        self.workers = len(os.sched_getaffinity(0)) if workload.workers == "nproc" else 1
        self.oracle = None
        self.attempted = 0
        self.failed = 0
        self.logprobs = set()

    def operation(self) -> tuple:
        """Run one timed operation; return (seconds, samples, problems)."""
        samples, problems = {}, []
        total = 0.0
        if self.workload.trains:
            steps = self.workload.timed_train
            for command, key, count, extra in (
                ("train-guide", "guide_step_ms", steps["steps"], []),
                ("train-sga", "sga_step_ms", steps["stage_steps"], ["--guide", self.out / "guide"]),
            ):
                t0 = time.perf_counter()
                rc = _cli([command, "--config", self.cfg_path] + extra)
                dt = time.perf_counter() - t0
                total += dt
                samples[key] = 1000 * dt / count
                self.attempted += 1
                if rc != 0:
                    problems.append(f"{command} exit {rc}")
                    return total, samples, problems
        t0 = time.perf_counter()
        rc = _cli(
            ["edit", "--config", self.cfg_path, "--workers", self.workers]
            + ["--guide", self.out / "guide", "--sga", self.out / "sga"]
            + ["--image", self.inputs["image"], "--semantic", self.inputs["semantic"], "--mask", self.inputs["mask"]]
        )
        samples["edit_s"] = time.perf_counter() - t0
        total += samples["edit_s"]
        self.attempted += 1
        if rc != 0:
            problems.append(f"edit exit {rc}")
        return total, samples, problems

    def check(self, samples: dict) -> list:
        """Check the outputs of the operation just run (untimed)."""
        import checks

        problems = []
        if self.workload.trains:
            steps = self.workload.timed_train
            problems += checks.check_losses(self.out / "guide" / "loss.csv", steps["steps"])
            stage_loss = self.out / "sga" / "loss_stage0.csv"
            problems += checks.check_losses(stage_loss, steps["stage_steps"])
            samples["final_loss"] = _mean_tail(checks.read_losses(stage_loss))
        edit_dir = self.out / "edit"
        if self.oracle is None:
            self.oracle = checks.EditOracle(self.cfg, self.out / "guide", self.out / "sga", self.inputs)
        problems += self.oracle.check(edit_dir)
        report = json.loads((edit_dir / "report.json").read_text())
        timings = json.loads((edit_dir / "timings.json").read_text())
        samples["candidate_s"] = timings["sga_s"] / report["n_samples"]
        samples["top_logprob"] = report["candidates"][0]["logprob"]
        # the same inputs and seed must give the same edit every time
        self.logprobs.add(samples["top_logprob"])
        if len(self.logprobs) > 1:
            problems.append(f"repeated edits disagree: log-probs {sorted(self.logprobs)}")
        return problems

    def run(self, tracer=None) -> tuple:
        """Timed loop for --seconds of operation time.

        Returns (samples of the untraced operations whose commands all
        exited 0, seconds of the traced operations). With a tracer, untraced
        and traced operations alternate and both kinds run at least once.
        """
        untraced, traced_s = [], []
        elapsed = 0.0
        i = 0
        while elapsed < self.seconds or i < (1 if tracer is None else 2):
            traced = tracer is not None and i % 2 == 1
            ctx = tracer.request_span(f"op.{self.workload.name}", i) if traced else contextlib.nullcontext()
            with ctx:
                dt, samples, problems = self.operation()
            elapsed += dt
            if traced:
                traced_s.append(dt)
            if not problems:  # every command exited 0, so there are outputs to check
                problems = self.check(samples)
                if not traced:
                    samples["op_s"] = dt
                    untraced.append(samples)
            for problem in problems:
                print(f"op {i} check failed: {problem}", file=sys.stderr)
            self.failed += bool(problems)
            i += 1
        return untraced, traced_s


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(workers: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workers": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def end_to_end(setup_result: dict, samples: list, attempted: int, failed: int, trains: bool) -> dict:
    def median(key):
        return statistics.median(s[key] for s in samples)

    values = {
        "setup_s": setup_result["setup_s"],
        "edit_s": median("edit_s"),
        "candidate_s": median("candidate_s"),
        "top_logprob": median("top_logprob"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    for key in ("guide_step_ms", "sga_step_ms", "final_loss"):
        values[key] = median(key) if trains else setup_result[key]
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(tracer, samples: list, traced_s: list) -> dict:
    import checks
    from sgaedit import tape as T

    n = len(traced_s)
    summary = tracer.summarize()
    values = {}
    for name, fields in LAYERS:
        row = summary.get(name, {})
        for field in fields:
            unit = "s" if field in ("s", "self_s") else "count"
            values[f"{name}.{field}"] = (row.get(field, 0.0) / n, unit)
    sampling = tracer.summarize(within="sampler.autoregressive_edit")
    rows = sampling.get("model.decoder_forward", {}).get("rows", 0)
    values["model.decoder_rows_per_token"] = (rows / sampling["sampler.topk_sample"]["calls"], "ratio")
    steps = summary.get("evalbench.train", {}).get("steps", 0)
    taped = sum(summary.get(f"tape.{op}", {}).get("taped", 0) for op in T.DIFFERENTIABLE_OPS)
    values["tape.ops_per_step"] = (taped / steps if steps else 0.0, "count")
    for name, value in checks.plan_counts(tracer.captured["sampler.guide_and_plan"]).items():
        values[name] = (value, "ratio")
    untraced_s = statistics.median(s["op_s"] for s in samples)
    values["tracing_overhead"] = (statistics.median(traced_s) / untraced_s, "ratio")
    values["trace.op_s"] = (statistics.median(traced_s), "s")
    values["trace.coverage"] = (tracer.root_coverage(), "ratio")
    return values


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "sgaedit").is_dir():
        print(f"perfbench: no sgaedit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    if args.setup_into:
        work = Path(args.setup_into)
        (work / "setup_result.json").write_text(json.dumps(setup(workload, args.seed, work)))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_result = run_setup_child(args, work)
        bench = Bench(workload, args.seconds, work, setup_result)
        env = environment(bench.workers)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        samples, traced_s = bench.run(tracer)
        if tracer is not None:
            tracer.uninstall()
        if not samples:
            print("perfbench: no untraced operation completed", file=sys.stderr)
            return 1
        attempted = setup_result["attempted"] + bench.attempted
        failed = setup_result["failed"] + bench.failed
        if tracer is None:
            values = end_to_end(setup_result, samples, attempted, failed, workload.trains)
        else:
            values = per_layer(tracer, samples, traced_s)
            traces = ROOT / ".perfbench_traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.json", env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    op_times = " ".join(f"{s['op_s']:.3f}" for s in samples)
    print(f"workload {args.workload} seed {args.seed}: error_rate {failed / attempted:g} ({failed}/{attempted} operations failed)")
    print(f"untraced operation seconds ({len(samples)}): {op_times}")
    for key in ("setup_s", "guide_step_ms", "sga_step_ms"):
        reps = " ".join(f"{r[key]:.3f}" for r in setup_result["reps"])
        print(f"set-up {key} ({len(setup_result['reps'])}): {reps}")
    for name, (value, unit) in values.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
