"""Synthetic long-range tasks, training, ablations, rollout, benchmarks.

The mirror task is the canonical long-range probe: the bottom half of each
grid is a vertical reflection of the top half, so the ground truth for a
masked bottom token lives at least half the grid away, outside any small
block neighborhood. Masks for that task are drawn inside the reflection
half so the source content stays visible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sga
from . import model as mdl
from . import tape as T
from .errors import DivergenceError, ParameterError, ShapeError, ValidationError
from .quantizer import TokenGrid, apply_mask
from .rng import substream

TASK_KINDS = ("mirror", "constant-region", "copy-corner")


@dataclass(frozen=True)
class SyntheticTask:
    """Procedural token-grid family whose samples satisfy an exact constraint."""

    kind: str
    height: int
    width: int
    vocab: int
    classes: int = 4

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.kind!r}")
        if self.kind in ("mirror",) and self.height % 2:
            raise ShapeError("mirror task needs an even height")
        if self.kind == "copy-corner" and (self.height % 2 or self.width % 2):
            raise ShapeError("copy-corner task needs even dims")

    @property
    def dims(self) -> tuple:
        return (self.height, self.width)

    def sample(self, rng) -> tuple[TokenGrid, TokenGrid]:
        """Draw one (tokens, semantic) instance. Semantic grids are constant:
        the tasks probe image-content dependencies, not label guidance."""
        h, w = self.height, self.width
        if self.kind == "mirror":
            top = rng.integers(0, self.vocab, size=(h // 2, w))
            tokens = np.concatenate([top, top[::-1]], axis=0)
        elif self.kind == "constant-region":
            tokens = np.full((h, w), int(rng.integers(0, self.vocab)))
        else:  # copy-corner
            quad = rng.integers(0, self.vocab, size=(h // 2, w // 2))
            tokens = np.block([[quad, quad], [quad, quad]])
        semantic = np.zeros((h, w), dtype=np.int64)
        return TokenGrid(tokens, self.vocab), TokenGrid(semantic, self.classes)

    def instance(self, rng) -> tuple[TokenGrid, TokenGrid, np.ndarray]:
        """One masked instance (tokens, semantic, mask): `sample`, then a
        `free_form_mask` inside `mask_region`, both drawn from `rng`."""
        x, p = self.sample(rng)
        return x, p, free_form_mask(self.dims, rng, region=self.mask_region())

    def check(self, grid: TokenGrid) -> bool:
        """Exact defining constraint of the family."""
        t = grid.tokens
        if self.kind == "mirror":
            return bool(np.array_equal(t[: self.height // 2], t[self.height // 2 :][::-1]))
        if self.kind == "constant-region":
            return bool((t == t[0, 0]).all())
        hh, hw = self.height // 2, self.width // 2
        quad = t[:hh, :hw]
        return bool(
            np.array_equal(t[:hh, hw:], quad)
            and np.array_equal(t[hh:, :hw], quad)
            and np.array_equal(t[hh:, hw:], quad)
        )

    def mask_region(self) -> Optional[np.ndarray]:
        """Region masks may be drawn in (None = anywhere). Chosen so the
        information needed to restore a masked token stays unmasked."""
        region = np.zeros((self.height, self.width), dtype=bool)
        if self.kind == "mirror":
            region[self.height // 2 :, :] = True
            return region
        if self.kind == "copy-corner":
            region[self.height // 2 :, self.width // 2 :] = True
            return region
        return None

    def source_position(self, i, j) -> tuple:
        """Where the ground truth of cell (i, j) can be read off; i and j
        may be int arrays of one shape, which give arrays (or one cell,
        (0, 0), for every cell of constant-region)."""
        if self.kind == "mirror":
            return (self.height - 1 - i, j)
        if self.kind == "copy-corner":
            return (i % (self.height // 2), j % (self.width // 2))
        return (0, 0)

    def oracle_plans(self, config: mdl.ModelConfig) -> mdl.PlanBundle:
        """The `oracle` ablation variant: ideal guiding plans at the task's
        resolution, the neighborhood plus the blocks holding each query
        block's source positions (shifted by one for the decoder's START
        offset, clamped to the sequence), as a perfect guiding pass would
        select."""
        w = self.width
        length = self.height * w
        block_of = sga.partition(length, config.blocks).block_of
        si, sj = self.source_position(*np.divmod(np.arange(length), w))
        source = si * w + sj  # every token's, or one for all of them

        def plan_for(shift: int) -> sga.SparsityPlan:
            keep = sga.band(config.blocks, config.radius)
            keep[block_of, block_of[np.clip(source + shift, 0, length - 1)]] = True
            return sga.SparsityPlan(keep)

        plans = {shift: plan_for(shift) for shift in (0, 1)}
        return mdl.PlanBundle.uniform(config, lambda role, layer, head: plans[1 if role == "dec_self" else 0])


# ---------------------------------------------------------------------------
# free-form masks
# ---------------------------------------------------------------------------


def _brush_limits(area: int) -> tuple[int, int]:
    """(min, max) brush radius so stamps stay small relative to the grid."""
    if area < 36:
        return 0, 0  # tiny grids: single-cell brush keeps the fraction bounds feasible
    if area < 100:
        return 1, 1
    return 1, 3


def free_form_mask(dims: tuple, rng: np.random.Generator, region: Optional[np.ndarray] = None) -> np.ndarray:
    """Random-brush mask: an 8-direction walk, drawn from `rng`, stamping
    square brushes.

    The masked fraction always lands in [0.1, 0.6] and the mask is one
    4-connected component. `region` (bool array) confines the walk, e.g.
    to a reflection half; the walk stops once every region cell is masked.
    """
    h, w = int(dims[0]), int(dims[1])
    if h < 2 or w < 2:
        raise ShapeError("mask dims must be at least 2 x 2")
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != (h, w):
            raise ShapeError(f"region shape {region.shape} != dims {(h, w)}")
        if not region.any():
            raise ValidationError("mask region is empty")

    area = h * w
    r_min, r_max = _brush_limits(area)
    target = rng.uniform(0.12, 0.5)
    cells = np.argwhere(region) if region is not None else None
    if cells is not None:
        pos = cells[rng.integers(cells.shape[0])]
        pos = [int(pos[0]), int(pos[1])]
        lo = [int(v) for v in cells.min(axis=0)]
        hi = [int(v) for v in cells.max(axis=0)]
    else:
        pos = [int(rng.integers(h)), int(rng.integers(w))]
        lo = [0, 0]
        hi = [h - 1, w - 1]

    moves_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    moves_4 = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    moves = moves_4 if r_max == 0 else moves_8  # single-cell brushes need 4-dir steps for connectivity

    mask = np.zeros((h, w), dtype=bool)
    count = 0  # masked cells
    reachable = area if region is None else int(np.count_nonzero(region))
    for _ in range(50 * area):
        frac = count / area
        if (frac >= target and frac >= 0.1) or count == reachable:  # a full region can grow no further
            break
        r = int(rng.integers(r_min, r_max + 1))
        stamped = False
        while r >= r_min:
            window = (slice(max(0, pos[0] - r), pos[0] + r + 1), slice(max(0, pos[1] - r), pos[1] + r + 1))
            new = ~mask[window]
            if region is not None:
                new &= region[window]
            added = int(np.count_nonzero(new))
            if (count + added) / area <= 0.6:
                mask[window] |= new
                count += added
                stamped = True
                break
            r -= 1
        if not stamped and count / area >= 0.1:
            break
        dy, dx = moves[int(rng.integers(len(moves)))]
        pos[0] = min(max(pos[0] + dy, lo[0]), hi[0])
        pos[1] = min(max(pos[1] + dx, lo[1]), hi[1])
    return mask


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class TrainResult:
    weights: mdl.ModelWeights
    losses: list


def _global_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.square(g).sum())
    return float(np.sqrt(total))


def train(
    weights: mdl.ModelWeights,
    task: SyntheticTask,
    steps: int,
    lr: float,
    seed: int,
    plans: Callable[[int], mdl.PlanBundle],
    optimizer: str = "sgd",
    clip: float = 1.0,
) -> TrainResult:
    """Teacher-forced training on masked-position cross-entropy.

    Per step: draw a masked task instance, run `model.forward` on the
    masked input under `plans(step)`, and take the mean cross-entropy of
    the decoder logits at masked positions against the ground truth.
    Gradients flow through the recorded tape; the global gradient norm is
    clipped at `clip`. Fixed plans are a `plans` that ignores the step;
    the guiding-driven fine-tuning path gives fresh plans per step. Adam
    uses ADAM_BETAS and ADAM_EPS.
    """
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if optimizer not in ("sgd", "adam"):
        raise ParameterError(f"unknown optimizer {optimizer!r}")
    if (task.height, task.width) != weights.grid:
        raise ShapeError(f"task dims {task.dims} != model grid {weights.grid}")
    cfg = weights.config
    params = {k: np.array(T.value_of(v)) for k, v in weights.params.items()}
    m_state = {k: np.zeros_like(v) for k, v in params.items()} if optimizer == "adam" else None
    v_state = {k: np.zeros_like(v) for k, v in params.items()} if optimizer == "adam" else None
    losses = []

    for step in range(steps):
        x, p, mask = task.instance(substream(seed, f"train-{step}"))
        tape = T.GradTape()
        tw = mdl.ModelWeights(cfg, weights.grid, {k: tape.param(v) for k, v in params.items()})
        logits = mdl.forward(apply_mask(x, mask), p, tw, plans(step), x.flat()).logits
        rows = np.flatnonzero(mask.ravel())
        loss = T.cross_entropy(T.gather_rows(logits, rows), x.flat()[rows])
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            raise DivergenceError(step)
        losses.append(loss_val)
        tape.backward(loss)

        grads = {k: (tw.params[k].grad if tw.params[k].grad is not None else np.zeros_like(params[k])) for k in params}
        norm = _global_norm(grads)
        if clip and norm > clip:
            scale = clip / norm
            for g in grads.values():
                g *= scale
        if optimizer == "sgd":
            for k in params:
                params[k] = params[k] - lr * grads[k]
        else:  # adam
            t = step + 1
            b1, b2 = ADAM_BETAS
            for k in params:
                m_state[k] = b1 * m_state[k] + (1 - b1) * grads[k]
                v_state[k] = b2 * v_state[k] + (1 - b2) * np.square(grads[k])
                mhat = m_state[k] / (1 - b1**t)
                vhat = v_state[k] / (1 - b2**t)
                params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    return TrainResult(weights=mdl.ModelWeights(cfg, weights.grid, params), losses=losses)


def masked_accuracy(
    weights: mdl.ModelWeights,
    task: SyntheticTask,
    plans: mdl.PlanBundle,
    instances: int,
    seed: int,
) -> float:
    """Teacher-forced argmax accuracy at masked positions on fresh instances."""
    hits = 0
    total = 0
    for i in range(instances):
        x, p, mask = task.instance(substream(seed, f"eval-{i}"))
        logits = mdl.forward(apply_mask(x, mask), p, weights, plans, x.flat()).logits
        rows = np.flatnonzero(mask.ravel())
        pred = np.argmax(logits[rows], axis=1)
        hits += int((pred == x.flat()[rows]).sum())
        total += rows.size
    return hits / total if total else 0.0


def write_loss_csv(path, losses) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(losses):
            fh.write(f"{i},{v!r}\n")


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

# `oracle` is `SyntheticTask.oracle_plans`; the fixed families are `sga.variant_plan`'s
ABLATION_VARIANTS = ("dense", "oracle", "local", "random", "global")
BENCH_VARIANTS = ("dense", "local", "random", "global")


def variant_bundle(kind: str, config: mdl.ModelConfig, task: SyntheticTask, seed: int) -> mdl.PlanBundle:
    """Plan bundle for one ablation variant at the task's resolution:
    `dense`, the task's `oracle` plans, or one `sga.variant_plan` of `kind`
    per (role, layer, head), each drawn from its own substream of `seed`."""
    if kind == "dense":
        return mdl.PlanBundle.dense(config)
    if kind == "oracle":
        return task.oracle_plans(config)

    def plan_for(role: str, layer: int, head: int) -> sga.SparsityPlan:
        rng = substream(seed, f"plan-{kind}-{role}-{layer}-{head}")
        return sga.variant_plan(kind, config.blocks, radius=config.radius, k=config.top_k, rng=rng)

    return mdl.PlanBundle.uniform(config, plan_for)


def forward_score_flops(config: mdl.ModelConfig, bundle: Optional[mdl.PlanBundle], length: int) -> int:
    """Score FLOPs of one full forward pass under the cost model; a None
    bundle counts dense attention."""
    bundle = mdl.PlanBundle.dense(config) if bundle is None else bundle
    dh = config.d // config.heads
    roles = (bundle.enc, bundle.dec_self, bundle.dec_cross)
    return sum(sga.score_flops_plan(p, length, dh) for role in roles for layer in role for p in layer)


@dataclass
class Table:
    """Result rows, one dict each. `to_json` writes the rows; `to_text`
    right-aligns every cell in `width` characters, a row's value formatted
    with its column's format spec and a list's items joined by "/"."""

    columns: tuple  # (name, format spec) pairs
    width: int
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.rows, sort_keys=True, indent=2)

    def to_text(self) -> str:
        def cell(value, spec: str) -> str:
            if isinstance(value, list):
                return "/".join(format(v, spec) for v in value)
            return format(value, spec)

        lines = [[name for name, _ in self.columns]]
        lines += [[cell(row[name], spec) for name, spec in self.columns] for row in self.rows]
        return "\n".join("  ".join(f"{c:>{self.width}}" for c in line) for line in lines)


ABLATION_COLUMNS = (
    ("variant", ""), ("accuracy", ".4f"), ("acc_per_seed", ".3f"), ("sparsity", ".4f"),
    ("score_flops", ""), ("steps", ""), ("seeds", ""),
)
BENCH_COLUMNS = (
    ("variant", ""), ("L", ""), ("d", ""), ("score_flops", ""), ("wall_s", ".5f"), ("sparsity", ".5f"),
    ("peak_entries", ""),
)


def run_ablation(
    variants: list,
    task: SyntheticTask,
    config: mdl.ModelConfig,
    steps: int,
    seeds: list,
    lr: float,
    optimizer: str,
    eval_instances: int,
    clip: float,
) -> Table:
    """Train each attention variant under an identical budget (the same
    steps, lr, optimizer and gradient clip) and compare masked-token
    accuracy on held-out instances. Every variant's plans are made before
    any training, so an unknown variant raises `ValidationError` first."""
    report = Table(ABLATION_COLUMNS, 14)
    length = task.height * task.width
    bundles = [variant_bundle(kind, config, task, seed=seeds[0] if seeds else 0) for kind in variants]
    for kind, bundle in zip(variants, bundles):
        accs = []
        for seed in seeds:
            init = mdl.init_weights(config, task.dims, substream(seed, "init"))
            result = train(
                init, task, steps=steps, lr=lr, seed=seed, plans=lambda step: bundle, optimizer=optimizer, clip=clip
            )
            accs.append(masked_accuracy(result.weights, task, bundle, eval_instances, seed=seed + 10_000))
        report.rows.append(
            {
                "variant": kind,
                "accuracy": float(np.mean(accs)),
                "acc_per_seed": [float(a) for a in accs],
                "sparsity": float(np.mean(list(bundle.mean_sparsity().values()))),
                "score_flops": forward_score_flops(config, bundle, length),
                "steps": steps,
                "seeds": list(seeds),
            }
        )
    return report


# ---------------------------------------------------------------------------
# attention rollout
# ---------------------------------------------------------------------------


def attention_rollout(layer_maps: list) -> np.ndarray:
    """Product of residual-corrected, head-averaged attention maps.

    Each input map must be row-stochastic; per layer the map becomes
    0.5 * map + 0.5 * I, row-normalized, and the layers are multiplied
    last-to-first.
    """
    if not layer_maps:
        raise ValidationError("need at least one attention map")
    size = None
    rollout = None
    for m in layer_maps:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"attention map must be square, got {m.shape}")
        if size is None:
            size = m.shape[0]
            rollout = np.eye(size)
        if m.shape[0] != size:
            raise ValidationError("attention maps differ in size")
        if m.min() < -1e-9 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValidationError("attention map is not row-stochastic")
        corrected = 0.5 * m + 0.5 * np.eye(size)
        corrected /= corrected.sum(axis=1, keepdims=True)
        rollout = corrected @ rollout
    return rollout


def head_averaged_maps(encoder_out: mdl.EncoderOutput) -> list:
    """Per-layer mean over the head maps of a dense (one-block) encoder pass."""
    maps = []
    for layer in encoder_out.attn:
        if layer is None:
            raise ValidationError("encoder pass has no attention maps (multi-block plans)")
        maps.append(layer.mean(axis=0))
    return maps


# ---------------------------------------------------------------------------
# cost benchmark
# ---------------------------------------------------------------------------


def benchmark(
    l_values: list, d: int, variants: list, repeats: int, n_blocks: int, radius: int, k: int, seed: int
) -> Table:
    """Wall-clock (median of >= repeats, one warm-up discarded) and exact
    score-FLOPs of the attention kernel, one head: the dense row is the
    plan of `model.PlanBundle.dense`, `full_plan(1)` on one block holding
    every token; every other row is one `sga.variant_plan` of its family
    (`BENCH_VARIANTS`) over `n_blocks` blocks, drawn from the substream
    `variant-plan-<family>` of `seed`. `peak_entries` is the size of the
    kernel's softmax weights, the score tiles of every query block against
    its padded kept keys, held at once."""
    if repeats < 5:
        raise ParameterError("repeats must be >= 5")
    report = Table(BENCH_COLUMNS, 12)
    for length in l_values:
        rng = substream(seed, f"bench-{length}")
        q = rng.normal(size=(length, d))
        kk = rng.normal(size=(length, d))
        v = rng.normal(size=(length, d))

        def timed(fn) -> float:
            fn()  # warm-up
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        for variant in variants:
            if variant == "dense":
                plans = [sga.full_plan(1)]
            else:
                rng = substream(seed, f"variant-plan-{variant}")
                plans = [sga.variant_plan(variant, n_blocks, radius=radius, k=k, rng=rng)]
            result = sga.sparse_attention(q, kk, v, plans)
            wall = timed(lambda: sga.sparse_attention(q, kk, v, plans))
            report.rows.append(
                {
                    "variant": variant,
                    "L": length,
                    "d": d,
                    "score_flops": result.score_flops,
                    "wall_s": wall,
                    "sparsity": sga.sparsity_ratio(plans[0]),
                    "peak_entries": result.weights.size,
                }
            )
    return report
