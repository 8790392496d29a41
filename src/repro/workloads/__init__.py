"""ML / computer-vision workloads for the prototype SoC.

Golden references (:mod:`.reference`) plus command-table builders
(:mod:`.soc_workloads`) for the six SoC-level tests used to reproduce
Figure 6, along with GEMM.

Quick use::

    from repro.workloads import conv2d_workload, run_workload

    soc = run_workload(conv2d_workload())      # raises if output wrong
    print(soc.elapsed_cycles)
"""

from .reference import (
    conv2d_ref,
    dot_ref,
    gemm_ref,
    kmeans_min_distances_ref,
    mask32,
    relu_ref,
    scale_ref,
    sum_ref,
)
from .soc_workloads import (
    SocWorkload,
    conv2d_fp16_workload,
    conv2d_workload,
    dot_product_workload,
    figure6_workloads,
    gemm_workload,
    heavy_scale_workload,
    kmeans_workload,
    memcpy_workload,
    reduction_workload,
    run_workload,
    vector_scale_workload,
)

__all__ = [
    "conv2d_ref", "dot_ref", "gemm_ref", "kmeans_min_distances_ref",
    "mask32", "relu_ref", "scale_ref", "sum_ref",
    "SocWorkload",
    "vector_scale_workload", "heavy_scale_workload", "memcpy_workload",
    "reduction_workload",
    "dot_product_workload", "conv2d_workload", "conv2d_fp16_workload", "kmeans_workload",
    "gemm_workload", "figure6_workloads", "run_workload",
]
