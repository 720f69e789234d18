"""Table 2: the benchmark suite — every workload builds and fast-forwards.

Prints the suite inventory with per-workload static/dynamic statistics
and benchmarks the functional fast-forward throughput across the suite.
"""

from repro.functional import FunctionalExecutor
from repro.harness import format_table
from repro.workloads import REGISTRY, build_pagerank, build_resnet, build_vgg

from conftest import emit

#: suite and description per registered workload; one registered later
#: is listed under its own name until it gets a row here
DESCRIPTIONS = {
    "aes": ("Hetero-Mark", "AES-256 Encryption"),
    "blackscholes": ("CUDA SDK", "Black-Scholes option pricing"),
    "fir": ("Hetero-Mark", "FIR filter"),
    "kmeans": ("Rodinia", "K-means nearest-centroid search"),
    "nbody": ("AMD APP SDK", "N-body force accumulation"),
    "sc": ("AMD APP SDK", "Simple Convolution"),
    "mm": ("AMD APP SDK", "Matrix Multiplication"),
    "relu": ("DNNMark", "Rectified Linear Unit"),
    "spmv": ("SHOC", "Sparse Matrix-Vector Multiplication"),
}


def test_table2(once):
    rows = []
    kernels = {}
    for name in sorted(REGISTRY):
        kernel = REGISTRY[name](256)
        kernels[name] = kernel
        suite, desc = DESCRIPTIONS.get(name, ("-", name))
        rows.append((name.upper(), suite, desc, len(kernel.program),
                     kernel.program.num_blocks, kernel.n_warps))
    pr = build_pagerank(256, iterations=2)
    vgg = build_vgg(16)
    resnet = build_resnet(18)
    rows.append(("PR-X", "Hetero-Mark", "PageRank with X nodes",
                 len(pr.kernels[0].program),
                 pr.kernels[0].program.num_blocks, pr.total_warps))
    rows.append(("VGG", "-", "VGG-16/19; batchsize=1", "-", "-",
                 vgg.total_warps))
    rows.append(("ResNet", "-", "ResNet-18..152; batchsize=1", "-", "-",
                 resnet.total_warps))
    emit("Table 2: benchmark suite", format_table(
        ("Abbr.", "Suite", "Description", "static insts", "blocks",
         "warps@256"), rows))

    def fast_forward_all():
        total = 0
        for kernel in kernels.values():
            executor = FunctionalExecutor(kernel)
            for warp in range(0, kernel.n_warps, 16):
                total += executor.run_warp_control(warp).n_insts
        return total

    total = once(fast_forward_all)
    assert total > 0
