"""SoC-level workloads: command tables for the prototype SoC.

Each builder returns a :class:`SocWorkload` — the controller command
table, global-memory preloads, and a bit-exact check against the golden
references in :mod:`repro.workloads.reference`.  The six workloads of
:func:`figure6_workloads` are the reproduction's stand-ins for the
paper's six SoC-level tests (Figure 6); they cover the applications the
paper names for the accelerator: CNN layers (conv2d), k-means
clustering, and vector/image kernels.

All builders target the default SoC geometry (4x4 PE array): PEs at
nodes 0-15, controller at 16, global memories at 17 (left) and 18
(right).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List

from ..soc.protocol import Cmd, Kernel
from .reference import (
    conv2d_ref,
    dot_ref,
    gemm_ref,
    kmeans_min_distances_ref,
    mask32,
    scale_ref,
    sum_ref,
)

__all__ = [
    "SocWorkload",
    "vector_scale_workload",
    "heavy_scale_workload",
    "memcpy_workload",
    "reduction_workload",
    "dot_product_workload",
    "conv2d_workload",
    "conv2d_fp16_workload",
    "kmeans_workload",
    "gemm_workload",
    "figure6_workloads",
    "run_workload",
]

CONTROLLER = 16
GMEM_LEFT = 17
GMEM_RIGHT = 18


@dataclass
class SocWorkload:
    """A complete SoC test: commands, data, and its correctness check."""

    name: str
    commands: List
    preload_left: List[int] = field(default_factory=list)
    preload_right: List[int] = field(default_factory=list)
    check: Callable = lambda soc: True
    description: str = ""


def _send(dest: int, *words) -> tuple:
    return ("send", dest, [int(w) for w in words])


# ----------------------------------------------------------------------
# 1. vector scale (data-parallel streaming)
# ----------------------------------------------------------------------
def vector_scale_workload(*, n_pes: int = 16, n_per_pe: int = 64,
                          factor: int = 3, seed: int = 1) -> SocWorkload:
    """Each PE scales its slice of a large vector by a constant."""
    rng = random.Random(seed)
    data = [rng.randrange(1 << 16) for _ in range(n_pes * n_per_pe)]
    out_base = len(data)
    commands = []
    for pe in range(n_pes):
        base = pe * n_per_pe
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, base, 0, n_per_pe),
            _send(pe, Cmd.COMPUTE, Kernel.SCALE, 0, 0, n_per_pe, n_per_pe,
                  factor),
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + base, n_per_pe,
                  n_per_pe),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))
    expected = scale_ref(data, factor)

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, len(data)) == expected

    return SocWorkload("vector_scale", commands, preload_left=data,
                       check=check,
                       description=f"{n_pes} PEs x {n_per_pe} words, x{factor}")


def heavy_scale_workload(n_pes: int, *, total_words: int = 1024,
                         chain: int = 24) -> SocWorkload:
    """``total_words`` split over ``n_pes``: LOAD, a ``chain``-command
    in-place SCALE sequence, STORE — compute-bound per PE, and
    ``chain + 3`` serially dispatched commands per PE."""
    n_per_pe = total_words // n_pes
    data = list(range(total_words))
    out_base = total_words
    commands = []
    for pe in range(n_pes):
        base = pe * n_per_pe
        commands.append(_send(pe, Cmd.LOAD, GMEM_LEFT, base, 0, n_per_pe))
        commands += [_send(pe, Cmd.COMPUTE, Kernel.SCALE, 0, 0, 0, n_per_pe, 3)
                     for _ in range(chain)]
        commands += [
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + base, 0, n_per_pe),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))
    expected = scale_ref(data, pow(3, chain, 1 << 32))

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, total_words) == expected

    return SocWorkload(f"heavy_scale_{n_pes}", commands, preload_left=data,
                       check=check,
                       description=f"{n_pes} PEs x {n_per_pe} words, "
                                   f"x3 {chain} times")


# ----------------------------------------------------------------------
# 2. memcpy stream (NoC + memory bandwidth)
# ----------------------------------------------------------------------
def memcpy_workload(*, n_pes: int = 16, n_per_pe: int = 64,
                    seed: int = 2) -> SocWorkload:
    """Stream a buffer from the left to the right memory through PEs."""
    rng = random.Random(seed)
    data = [rng.randrange(1 << 32) for _ in range(n_pes * n_per_pe)]
    commands = []
    for pe in range(n_pes):
        base = pe * n_per_pe
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, base, 0, n_per_pe),
            _send(pe, Cmd.STORE, GMEM_RIGHT, base, 0, n_per_pe),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))

    def check(soc) -> bool:
        return soc.gmem_right.dump(0, len(data)) == data

    return SocWorkload("memcpy_stream", commands, preload_left=data,
                       check=check,
                       description=f"{n_pes} PEs x {n_per_pe} words L->R")


# ----------------------------------------------------------------------
# 3. reduction (two-phase tree)
# ----------------------------------------------------------------------
def reduction_workload(*, n_pes: int = 16, n_per_pe: int = 64,
                       seed: int = 3) -> SocWorkload:
    """Sum a large vector: per-PE partial sums, then PE0 combines."""
    rng = random.Random(seed)
    data = [rng.randrange(1 << 20) for _ in range(n_pes * n_per_pe)]
    partials_base = len(data)
    final_addr = partials_base + n_pes
    commands = []
    for pe in range(n_pes):
        base = pe * n_per_pe
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, base, 0, n_per_pe),
            _send(pe, Cmd.COMPUTE, Kernel.VSUM, 0, 0, n_per_pe, n_per_pe, 0),
            _send(pe, Cmd.STORE, GMEM_LEFT, partials_base + pe, n_per_pe, 1),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))
    commands += [
        _send(0, Cmd.LOAD, GMEM_LEFT, partials_base, 0, n_pes),
        _send(0, Cmd.COMPUTE, Kernel.VSUM, 0, 0, n_pes, n_pes, 0),
        _send(0, Cmd.STORE, GMEM_LEFT, final_addr, n_pes, 1),
        _send(0, Cmd.NOTIFY, CONTROLLER, 100),
        ("wait", n_pes + 1),
    ]
    expected = sum_ref(data)

    def check(soc) -> bool:
        return soc.gmem_left.dump(final_addr, 1) == [expected]

    return SocWorkload("reduction", commands, preload_left=data, check=check,
                       description=f"sum of {len(data)} words, 2-phase")


# ----------------------------------------------------------------------
# 4. dot product (two-phase)
# ----------------------------------------------------------------------
def dot_product_workload(*, n_pes: int = 16, n_per_pe: int = 64,
                         seed: int = 4) -> SocWorkload:
    """dot(a, b) with a in the left memory, b in the right."""
    rng = random.Random(seed)
    n = n_pes * n_per_pe
    a = [rng.randrange(1 << 12) for _ in range(n)]
    b = [rng.randrange(1 << 12) for _ in range(n)]
    partials_base = n
    final_addr = partials_base + n_pes
    commands = []
    for pe in range(n_pes):
        base = pe * n_per_pe
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, base, 0, n_per_pe),
            _send(pe, Cmd.LOAD, GMEM_RIGHT, base, n_per_pe, n_per_pe),
            _send(pe, Cmd.COMPUTE, Kernel.DOT, 0, n_per_pe, 2 * n_per_pe,
                  n_per_pe, 0),
            _send(pe, Cmd.STORE, GMEM_LEFT, partials_base + pe, 2 * n_per_pe, 1),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))
    commands += [
        _send(0, Cmd.LOAD, GMEM_LEFT, partials_base, 0, n_pes),
        _send(0, Cmd.COMPUTE, Kernel.VSUM, 0, 0, n_pes, n_pes, 0),
        _send(0, Cmd.STORE, GMEM_LEFT, final_addr, n_pes, 1),
        _send(0, Cmd.NOTIFY, CONTROLLER, 100),
        ("wait", n_pes + 1),
    ]
    expected = dot_ref(a, b)

    def check(soc) -> bool:
        return soc.gmem_left.dump(final_addr, 1) == [expected]

    return SocWorkload("dot_product", commands, preload_left=a,
                       preload_right=b, check=check,
                       description=f"dot of two {n}-word vectors")


# ----------------------------------------------------------------------
# 5. conv2d (CNN layer)
# ----------------------------------------------------------------------
def conv2d_workload(*, height: int = 12, width: int = 16,
                    seed: int = 5) -> SocWorkload:
    """3x3 valid convolution; one PE per output row.

    Per output row each PE accumulates the nine shifted-row x weight
    products with LOAD + SCALE + VADD command sequences — a CNN layer
    expressed on the PE's vector kernels.
    """
    rng = random.Random(seed)
    image = [[rng.randrange(256) for _ in range(width)] for _ in range(height)]
    kernel = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
    out_h, out_w = height - 2, width - 2
    flat = [px for row in image for px in row]
    out_base = len(flat)

    # Scratchpad layout per PE: acc @0, tmp @out_w, tmp2 @2*out_w.
    acc, tmp, tmp2 = 0, out_w, 2 * out_w
    commands = []
    for oy in range(out_h):
        pe = oy % 16
        # Zero the accumulator: load any row then scale by 0.
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, oy * width, tmp, out_w),
            _send(pe, Cmd.COMPUTE, Kernel.SCALE, tmp, 0, acc, out_w, 0),
        ]
        for ky in range(3):
            for kx in range(3):
                w = kernel[ky][kx]
                if w == 0:
                    continue
                src = (oy + ky) * width + kx
                commands += [
                    _send(pe, Cmd.LOAD, GMEM_LEFT, src, tmp, out_w),
                    _send(pe, Cmd.COMPUTE, Kernel.SCALE, tmp, 0, tmp2,
                          out_w, w),
                    _send(pe, Cmd.COMPUTE, Kernel.VADD, acc, tmp2, acc,
                          out_w, 0),
                ]
        commands += [
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + oy * out_w, acc, out_w),
            _send(pe, Cmd.NOTIFY, CONTROLLER, oy),
        ]
    commands.append(("wait", out_h))
    expected = [px for row in conv2d_ref(image, kernel) for px in row]

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, len(expected)) == expected

    return SocWorkload("conv2d", commands, preload_left=flat, check=check,
                       description=f"{height}x{width} image, 3x3 kernel")


# ----------------------------------------------------------------------
# 6. k-means distance step
# ----------------------------------------------------------------------
def kmeans_workload(*, n_points: int = 64, dim: int = 4, k: int = 3,
                    n_pes: int = 8, seed: int = 6) -> SocWorkload:
    """Min squared distance from each point to its nearest centroid.

    Dimension-planar layout: plane d holds coordinate d of every point.
    Each PE handles a slice of points; centroid coordinates are embedded
    in the command stream as ADDS constants (they are parameters of the
    kernel launch, like CNN weights).
    """
    if n_points % n_pes:
        raise ValueError("n_points must divide evenly among PEs")
    rng = random.Random(seed)
    points = [[rng.randrange(-50, 50) for _ in range(dim)]
              for _ in range(n_points)]
    centroids = [[rng.randrange(-50, 50) for _ in range(dim)]
                 for _ in range(k)]
    planes = [[mask32(p[d]) for p in points] for d in range(dim)]
    flat = [v for plane in planes for v in plane]
    out_base = len(flat)
    per_pe = n_points // n_pes

    commands = []
    for pe in range(n_pes):
        lo = pe * per_pe
        # Scratchpad layout: planes at d*per_pe, then acc/diff/sq/best.
        acc = dim * per_pe
        diff = acc + per_pe
        sq = diff + per_pe
        best = sq + per_pe
        for d in range(dim):
            commands.append(_send(pe, Cmd.LOAD, GMEM_LEFT,
                                  d * n_points + lo, d * per_pe, per_pe))
        for ci, c in enumerate(centroids):
            # acc = sum_d (x_d - c_d)^2
            for d in range(dim):
                commands += [
                    _send(pe, Cmd.COMPUTE, Kernel.ADDS, d * per_pe, 0, diff,
                          per_pe, mask32(-c[d])),
                    _send(pe, Cmd.COMPUTE, Kernel.VMUL, diff, diff, sq,
                          per_pe, 0),
                ]
                if d == 0:
                    commands.append(_send(pe, Cmd.COMPUTE, Kernel.SCALE, sq,
                                          0, acc, per_pe, 1))
                else:
                    commands.append(_send(pe, Cmd.COMPUTE, Kernel.VADD, acc,
                                          sq, acc, per_pe, 0))
            if ci == 0:
                commands.append(_send(pe, Cmd.COMPUTE, Kernel.SCALE, acc, 0,
                                      best, per_pe, 1))
            else:
                commands.append(_send(pe, Cmd.COMPUTE, Kernel.VMIN, best, acc,
                                      best, per_pe, 0))
        commands += [
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + lo, best, per_pe),
            _send(pe, Cmd.NOTIFY, CONTROLLER, pe),
        ]
    commands.append(("wait", n_pes))
    expected = kmeans_min_distances_ref(points, centroids)

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, n_points) == expected

    return SocWorkload("kmeans_distance", commands, preload_left=flat,
                       check=check,
                       description=f"{n_points} pts, {dim}-d, {k} centroids")


# ----------------------------------------------------------------------
# 7. GEMM (bonus; used by examples)
# ----------------------------------------------------------------------
def gemm_workload(*, m: int = 8, k: int = 8, n: int = 8,
                  seed: int = 7) -> SocWorkload:
    """Integer matrix multiply, one PE per row of A."""
    if m > 16:
        raise ValueError("at most one PE per row of A (m <= 16)")
    rng = random.Random(seed)
    a = [[rng.randrange(-16, 16) for _ in range(k)] for _ in range(m)]
    b = [[rng.randrange(-16, 16) for _ in range(k)] for _ in range(n)]
    # b is stored column-major: column j of B == row j of the stored array.
    a_flat = [mask32(v) for row in a for v in row]
    b_cols = [mask32(b[j][p]) for j in range(n) for p in range(k)]
    out_base = len(a_flat)

    commands = []
    for i in range(m):
        pe = i
        # Scratchpad: A-row @0, B-col @k, results @2k+j.
        commands.append(_send(pe, Cmd.LOAD, GMEM_LEFT, i * k, 0, k))
        for j in range(n):
            commands += [
                _send(pe, Cmd.LOAD, GMEM_RIGHT, j * k, k, k),
                _send(pe, Cmd.COMPUTE, Kernel.DOT, 0, k, 2 * k + j, k, 0),
            ]
        commands += [
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + i * n, 2 * k, n),
            _send(pe, Cmd.NOTIFY, CONTROLLER, i),
        ]
    commands.append(("wait", m))
    # b is stored column-major (b[j] is column j): reconstruct B (k x n).
    b_matrix = [[b[j][p] for j in range(n)] for p in range(k)]
    expected = [v for row in gemm_ref(a, b_matrix) for v in row]

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, m * n) == expected

    return SocWorkload("gemm", commands, preload_left=a_flat,
                       preload_right=b_cols, check=check,
                       description=f"{m}x{k} @ {k}x{n} int GEMM")


def figure6_workloads() -> List[SocWorkload]:
    """The six SoC-level tests used to reproduce Figure 6."""
    return [
        vector_scale_workload(),
        memcpy_workload(),
        reduction_workload(),
        dot_product_workload(),
        conv2d_workload(),
        kmeans_workload(),
    ]


def run_workload(workload: SocWorkload, *, mode: str = "fast",
                 gals: bool = False, **chip_kwargs):
    """Build a SoC, run one workload, verify it; returns the chip.

    Raises ``AssertionError`` if the result does not match the golden
    reference bit-for-bit.
    """
    from ..soc.chip import PrototypeSoC

    soc = PrototypeSoC(commands=workload.commands, mode=mode, gals=gals,
                       **chip_kwargs)
    if workload.preload_left:
        soc.gmem_left.load(workload.preload_left)
    if workload.preload_right:
        soc.gmem_right.load(workload.preload_right)
    soc.run()
    assert workload.check(soc), f"workload {workload.name} result mismatch"
    return soc


# ----------------------------------------------------------------------
# 8. conv2d in FP16 (the ML datapath end to end)
# ----------------------------------------------------------------------
def conv2d_fp16_workload(*, height: int = 8, width: int = 10,
                         seed: int = 8) -> SocWorkload:
    """3x3 valid convolution computed in FP16 on the PE datapath.

    Same structure as :func:`conv2d_workload` but every value is an FP16
    bit pattern and every arithmetic op is MatchLib's bit-accurate float
    — the datapath the paper's ML accelerator actually runs.  The golden
    reference accumulates with the same fp_mul/fp_add sequence, so the
    check is bit-exact.
    """
    from ..matchlib.fp import FP16, fp_add, fp_mul

    rng = random.Random(seed)
    image = [[FP16.encode(rng.uniform(-2.0, 2.0)) for _ in range(width)]
             for _ in range(height)]
    kernel = [[FP16.encode(rng.choice([-1.0, -0.5, 0.5, 1.0, 2.0]))
               for _ in range(3)] for _ in range(3)]
    out_h, out_w = height - 2, width - 2
    flat = [px for row in image for px in row]
    out_base = len(flat)

    acc, tmp, tmp2 = 0, out_w, 2 * out_w
    commands = []
    for oy in range(out_h):
        pe = oy % 16
        commands += [
            _send(pe, Cmd.LOAD, GMEM_LEFT, oy * width, tmp, out_w),
            # Zero accumulator: anything times +0.0 is +-0.0; use SCALE
            # by the FP16 encoding of 0.0, then square away the sign by
            # adding +0.0 (fp_add(-0,+0) = +0 under RNE).
            _send(pe, Cmd.COMPUTE, Kernel.SCALE_FP16, tmp, 0, acc, out_w,
                  FP16.zero()),
            _send(pe, Cmd.COMPUTE, Kernel.ADDS_FP16, acc, 0, acc, out_w,
                  FP16.zero()),
        ]
        for ky in range(3):
            for kx in range(3):
                w_bits = kernel[ky][kx]
                src = (oy + ky) * width + kx
                commands += [
                    _send(pe, Cmd.LOAD, GMEM_LEFT, src, tmp, out_w),
                    _send(pe, Cmd.COMPUTE, Kernel.SCALE_FP16, tmp, 0, tmp2,
                          out_w, w_bits),
                    _send(pe, Cmd.COMPUTE, Kernel.VADD_FP16, acc, tmp2, acc,
                          out_w, 0),
                ]
        commands += [
            _send(pe, Cmd.STORE, GMEM_LEFT, out_base + oy * out_w, acc, out_w),
            _send(pe, Cmd.NOTIFY, CONTROLLER, oy),
        ]
    commands.append(("wait", out_h))

    # Bit-exact golden reference: identical op order to the PE commands.
    expected = []
    for oy in range(out_h):
        # Mirror the PE's accumulator-zeroing sequence exactly.
        row = [fp_add(FP16, fp_mul(FP16, image[oy][ox], FP16.zero()),
                      FP16.zero()) for ox in range(out_w)]
        for ky in range(3):
            for kx in range(3):
                w_bits = kernel[ky][kx]
                for ox in range(out_w):
                    prod = fp_mul(FP16, image[oy + ky][ox + kx], w_bits)
                    row[ox] = fp_add(FP16, row[ox], prod)
        expected.extend(row)

    def check(soc) -> bool:
        return soc.gmem_left.dump(out_base, len(expected)) == expected

    return SocWorkload("conv2d_fp16", commands, preload_left=flat,
                       check=check,
                       description=f"{height}x{width} FP16 image, 3x3 kernel")
