"""The package API that `perfbench/` reads, pinned without running the benchmark.

`perfbench/run.py --trace 1` wraps the package's functions from outside
(`perfbench/tracing.py`) and computes plan counts from a traced
`sampler.guide_and_plan` call (`perfbench/checks.py`). Both files are
loaded here as they are, so an API change that breaks them fails Tier-1.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from sgaedit import evalbench as eb
from sgaedit import model as mdl
from sgaedit import sampler
from sgaedit.quantizer import TokenGrid
from sgaedit.rng import substream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CFG = mdl.ModelConfig(
    d=16, layers_enc=1, layers_dec=2, heads=2, vocab=8, vocab_map=3,
    grid_high=(8, 8), grid_low=(4, 4), blocks=8, top_k=2, radius=1, ffw=32,
)

PLAN_COUNTS = (
    "sga.kept_fraction.enc",
    "sga.kept_fraction.dec_self",
    "sga.kept_fraction.dec_cross",
    "sga.score_flops_ratio",
    "sga.dead_kept_fraction",
    "sga.plan_mass_kept",
)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_request():
    rng = substream(0, "contract-request")
    mask, mask_low = np.zeros(CFG.grid_high, bool), np.zeros(CFG.grid_low, bool)
    mask[4:, 2:6] = True
    mask_low[2:, 1:3] = True
    return sampler.EditRequest(
        tokens=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_high), CFG.vocab),
        semantic=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_high), CFG.vocab_map),
        mask=mask,
        tokens_low=TokenGrid(rng.integers(0, CFG.vocab, size=CFG.grid_low), CFG.vocab),
        semantic_low=TokenGrid(rng.integers(0, CFG.vocab_map, size=CFG.grid_low), CFG.vocab_map),
        mask_low=mask_low,
    )


def test_traced_guide_and_plan_gives_plan_counts():
    tracing, checks = load("tracing"), load("checks")
    guide = mdl.init_weights(CFG, CFG.grid_low, substream(1, "contract-guide"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request_span("edit", 0):
            sampler.guide_and_plan(make_request(), guide, CFG, seed=0)
    finally:
        tracer.uninstall()
    assert sampler.guide_and_plan.__module__ == "sgaedit.sampler"  # the originals are back
    summary = tracer.summarize()
    assert summary["model.decoder_forward"]["rows"] == CFG.l_low  # the tracer binds `prev_tokens`
    counts = checks.plan_counts(tracer.captured["sampler.guide_and_plan"])
    assert sorted(counts) == sorted(PLAN_COUNTS)
    assert all(math.isfinite(value) for value in counts.values())
    assert 0.0 < counts["sga.score_flops_ratio"] < 1.0


def traced_layer_names():
    """The names in `perfbench/run.py`'s LAYERS, read without running the file."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "LAYERS" for target in node.targets):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no LAYERS")


def test_every_traced_layer_name_resolves():
    """A rename in the package fails here rather than reading as zero calls."""
    names = traced_layer_names()
    assert "tape.GradTape.backward" in names
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"sgaedit.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"{name}: sgaedit.{module} has no {'.'.join(path)}"
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_forward_score_flops_of_none_is_the_dense_bundle():
    length = CFG.l_high
    dh = CFG.d // CFG.heads
    want = (CFG.layers_enc + 2 * CFG.layers_dec) * CFG.heads * 2 * dh * length**2
    assert eb.forward_score_flops(CFG, None, length) == want
    assert eb.forward_score_flops(CFG, mdl.PlanBundle.dense(CFG), length) == want
