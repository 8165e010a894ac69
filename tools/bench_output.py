"""Time an edit's output stage: decode, blend and write C candidates.

The stage is what `sgaedit edit` does after sampling: `tokens_to_image`
and `laplacian_blend` over all kept candidates at once (4 pyramid levels
at every `--grid`), and `write_pnm` for each. The input is a synthetic gray image of `--grid` x
`--grid` tokens of 16 px (perfbench's patch), a 64-d random projection
and a 16-entry codebook fitted to the image's patches. The mask is the
`edit-hires` workload's shape: 4 x 2 tokens over the last two token rows.
Each candidate is the image's tokens with the masked ones redrawn at
random. Each repeat runs the whole stage into a temporary directory and
the median is reported. The last line of output is one JSON object that
also holds a digest of the written image bytes in candidate order, so two
checkouts can be compared for equal outputs. Run from a checkout's
root, with that checkout's sources:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/bench_output.py --grid 32 --candidates 10 --repeats 5
"""

import argparse
import hashlib
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from sgaedit import compositing, images
from sgaedit.quantizer import encode_patches, fit_codebook, quantize, random_projection
from sgaedit.rng import substream

PATCH = 16


def output_stage(tokens, image, pixel_mask, codebook, projection, out: Path) -> list:
    """Write the blended image of every grid of the stack `tokens` to `out`;
    return the paths in order."""
    paths = [out / f"candidate_{rank:02d}.pgm" for rank in range(len(tokens))]
    recons = compositing.tokens_to_image(tokens, codebook, projection, PATCH)
    for path, img in zip(paths, compositing.laplacian_blend(recons, image, pixel_mask.astype(np.float64))):
        images.write_pnm(path, img)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=32, choices=(16, 32, 64), help="token grid side")
    parser.add_argument("--candidates", type=int, default=10, help="kept candidates C")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    side, px = args.grid, args.grid * PATCH
    rng = substream(args.seed, "bench-output")
    image = np.rint(255 * images.synthetic_image(px, px, 1, rng)) / 255  # 8-bit, as `read_pnm` gives
    projection = random_projection(PATCH, 1, 64, args.seed, "bench-output-projection")
    features = encode_patches(image, PATCH, projection)
    codebook = fit_codebook(features.reshape(-1, 64), 16, 5, args.seed)
    tokens = quantize(features, codebook).tokens
    mask = np.zeros((side, side), bool)
    mask[side - 2 :, side // 2 - 2 : side // 2 + 2] = True
    stack = np.repeat(tokens[None], args.candidates, axis=0)
    for drawn in stack:
        drawn[mask] = rng.integers(0, codebook.size, size=int(mask.sum()))
    pixel_mask = np.kron(mask, np.ones((PATCH, PATCH), bool))

    seconds = []
    for _ in range(args.repeats):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            paths = output_stage(stack, image, pixel_mask, codebook, projection, Path(tmp))
            seconds.append(time.perf_counter() - t0)
            digest = hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()
        print(f"output stage {seconds[-1]:.4f} s")
    result = {
        "grid": side,
        "pixels": px,
        "masked_tokens": int(mask.sum()),
        "candidates": args.candidates,
        "seconds": seconds,
        "median_s": statistics.median(seconds),
        "images_sha256": digest,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
