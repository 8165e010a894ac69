"""Synthetic long-range tasks, training and the attention-variant ablation.

The mirror task is the canonical long-range probe: the bottom half of each
grid is a vertical reflection of the top half, so the ground truth for a
masked bottom token lives at least half the grid away, outside any small
block neighborhood. Masks for that task are drawn inside the reflection
half so the source content stays visible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sampler, sga
from . import model as mdl
from . import tape as T
from .errors import NumericalError, ShapeError, ValidationError
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
        """Exact defining constraint of the family: every cell equals the
        cell at its `source_position`."""
        t = grid.tokens
        return bool((t == t[self.source_position(*np.indices(self.dims))]).all())

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
        layout = sga.partition(length, config.blocks)
        block_of = layout.block_of
        si, sj = self.source_position(*np.divmod(np.arange(length), w))
        source = si * w + sj  # every token's, or one for all of them

        def plan_for(shift: int) -> sga.SparsityPlan:
            keep = layout.near(config.radius)
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
    clipped at `clip`, and `clip` 0 turns clipping off. Fixed plans are a
    `plans` that ignores the step; `guided_plans` gives fresh plans per
    step. Adam uses ADAM_BETAS and ADAM_EPS.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if optimizer not in ("sgd", "adam"):
        raise ValidationError(f"unknown optimizer {optimizer!r}")
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
            raise NumericalError(f"non-finite loss at step {step}")
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


def guided_plans(
    guide: mdl.ModelWeights, task_low: SyntheticTask, config: mdl.ModelConfig, seed: int, stream: str
) -> Callable[[int], mdl.PlanBundle]:
    """`train`'s `plans` for fine-tuning under a guide: step `step` draws a
    masked `task_low` instance from substream `{stream}-{step}` of `seed`,
    runs the guide over it teacher-forced, and pools its maps into plans."""

    def plans(step: int) -> mdl.PlanBundle:
        x_low, p_low, mask_low = task_low.instance(substream(seed, f"{stream}-{step}"))
        forced = mdl.guiding_forward(apply_mask(x_low, mask_low), p_low, guide, decoder_tokens=x_low.flat())
        return sampler.plans_from_maps(forced.encoder.attn, forced.dec_self_attn, forced.dec_cross_attn, config)

    return plans


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


def variant_bundle(kind: str, config: mdl.ModelConfig, task: SyntheticTask, seed: int) -> mdl.PlanBundle:
    """Plan bundle for one ablation variant at the task's resolution:
    `dense`, the task's `oracle` plans, or one `sga.variant_plan` of `kind`
    per (role, layer, head), each drawn from its own substream of `seed`."""
    if kind == "dense":
        return mdl.PlanBundle.dense(config)
    if kind == "oracle":
        return task.oracle_plans(config)
    near = sga.partition(task.height * task.width, config.blocks).near(config.radius)

    def plan_for(role: str, layer: int, head: int) -> sga.SparsityPlan:
        rng = substream(seed, f"plan-{kind}-{role}-{layer}-{head}")
        return sga.variant_plan(kind, near, k=config.top_k, rng=rng)

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
    right-aligns every cell in 14 characters, a row's value formatted with
    its column's format spec and a list's items joined by "/"."""

    columns: tuple  # (name, format spec) pairs
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
        return "\n".join("  ".join(f"{c:>14}" for c in line) for line in lines)


ABLATION_COLUMNS = (
    ("variant", ""), ("accuracy", ".4f"), ("acc_per_seed", ".3f"), ("sparsity", ".4f"),
    ("score_flops", ""), ("steps", ""), ("seeds", ""),
)


def _seed_mean(values: list) -> float:
    """Mean of a row's per-seed values, taken as offsets from the first so
    that seeds that agree (the fixed bundles of `dense`, `oracle`, `local`)
    give their common value exactly, where a plain mean can round it."""
    return values[0] + float(np.mean(np.subtract(values, values[0])))


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
    accuracy on held-out instances. Each seed trains under its own bundle
    (`variant_bundle` of that seed), so `random` and `global` draw a fresh
    pattern per seed; a row's `sparsity` and `score_flops` are the means
    over its seeds' bundles. Every bundle is made before any training, so
    an unknown variant raises `ValidationError` first."""
    if not seeds:
        raise ValidationError("seeds must be a non-empty list")
    report = Table(ABLATION_COLUMNS)
    length = task.height * task.width
    bundles = [[variant_bundle(kind, config, task, seed=seed) for seed in seeds] for kind in variants]
    for kind, per_seed in zip(variants, bundles):
        accs = []
        for seed, bundle in zip(seeds, per_seed):
            init = mdl.init_weights(config, task.dims, substream(seed, "init"))
            result = train(
                init, task, steps=steps, lr=lr, seed=seed, plans=lambda step: bundle, optimizer=optimizer, clip=clip
            )
            accs.append(masked_accuracy(result.weights, task, bundle, eval_instances, seed=seed + 10_000))
        sparsity = [float(np.mean(list(b.mean_sparsity().values()))) for b in per_seed]
        flops = [forward_score_flops(config, b, length) for b in per_seed]
        report.rows.append(
            {
                "variant": kind,
                "accuracy": float(np.mean(accs)),
                "acc_per_seed": [float(a) for a in accs],
                "sparsity": _seed_mean(sparsity),
                "score_flops": round(_seed_mean(flops)),
                "steps": steps,
                "seeds": list(seeds),
            }
        )
    return report
