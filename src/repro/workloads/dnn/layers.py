"""DNN layer kernels (the substrate for VGG and ResNet inference).

All convolution and fully-connected layers share **one** kernel program
(`conv`), parameterised at launch time through scalar registers: trip
count, output geometry (powers of two, decomposed with shifts/masks),
stride and input geometry.  A dense layer is a 1x1 convolution over a
1x1 spatial grid.  This mirrors how a GPU BLAS/DNN library reuses one
im2col/GEMM kernel across layers, and it is what makes Photon's
kernel-sampling effective on these networks: launches with the same
shape produce identical GPU BBVs, and launches with similar shapes
cluster together (paper Figure 6).

Layout is NCHW with all dimensions powers of two; per-lane coordinates
are recovered with shift/mask operations.  Weight and input reads are
per-lane gathers, which degenerate to broadcast loads when a warp sits
inside one output channel.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ...errors import WorkloadError
from ...functional.kernel import Kernel
from ...functional.memory import GlobalMemory
from ...isa.builder import KernelBuilder
from ...isa.instructions import MemAddr
from ...isa.opcodes import s, v
from ..base import WARP_SIZE, alloc_normal, default_rng

# conv/dense argument registers (shared program)
_IN, _W, _OUT = 4, 5, 6
_LOG2_HW, _MASK_HW, _LOG2_W, _MASK_W = 7, 8, 9, 10
_STRIDE, _W_IN, _HW_IN, _KSIZE, _CIN, _TRIP = 11, 12, 13, 14, 15, 16
# loop registers
_T, _CIN_OFF, _I, _J, _CIN_CTR = 17, 18, 19, 20, 21
_SCR1, _SCR2 = 22, 23


def _log2(value: int, what: str) -> int:
    log = int(math.log2(value))
    if 1 << log != value:
        raise WorkloadError(f"{what} must be a power of two, got {value}")
    return log


def build_conv_program() -> KernelBuilder:
    """The universal conv/dense kernel (fused ReLU).

    One warp computes 64 consecutive elements of the flattened
    ``[C_out][H_out][W_out]`` output.  The tap loop nests over input
    channel and the kernel window; each tap gathers one input value and
    one weight value per lane and accumulates.
    """
    b = KernelBuilder("conv")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))  # flat output index
    b.v_lshr(v(1), v(0), s(_LOG2_HW))  # output channel
    b.v_and(v(2), v(0), s(_MASK_HW))  # pixel within channel
    b.v_lshr(v(3), v(2), s(_LOG2_W))  # y
    b.v_and(v(4), v(2), s(_MASK_W))  # x
    b.v_mul(v(3), v(3), s(_STRIDE))  # y * stride
    b.v_mul(v(4), v(4), s(_STRIDE))  # x * stride
    b.v_mul(v(5), v(3), s(_W_IN))
    b.v_add(v(5), v(5), v(4))  # per-lane input pixel offset
    b.v_mul(v(6), v(1), s(_TRIP))  # per-lane weight base (co * trip)
    b.v_mov(v(9), 0.0)  # accumulator
    b.s_mov(s(_T), 0)  # linear tap index
    b.s_mov(s(_CIN_OFF), 0)  # cin * H_in * W_in
    b.s_mov(s(_CIN_CTR), 0)
    b.label("cin_loop")
    b.s_mov(s(_I), 0)
    b.label("i_loop")
    b.s_mov(s(_J), 0)
    b.label("j_loop")
    # input gather: in + cin_off + i*W_in + j + lane_pixel_offset
    b.s_mul(s(_SCR1), s(_I), s(_W_IN))
    b.s_add(s(_SCR1), s(_SCR1), s(_CIN_OFF))
    b.s_add(s(_SCR1), s(_SCR1), s(_J))
    b.s_add(s(_SCR1), s(_SCR1), s(_IN))
    b.v_load(v(10), MemAddr(base=s(_SCR1), index=v(5)))
    # weight gather: w + t + co*trip
    b.s_add(s(_SCR2), s(_W), s(_T))
    b.v_load(v(11), MemAddr(base=s(_SCR2), index=v(6)))
    b.s_waitcnt()
    b.v_mac(v(9), v(10), v(11))
    b.s_add(s(_T), s(_T), 1)
    b.s_add(s(_J), s(_J), 1)
    b.s_cmp_lt(s(_J), s(_KSIZE))
    b.s_cbranch_scc1("j_loop")
    b.s_add(s(_I), s(_I), 1)
    b.s_cmp_lt(s(_I), s(_KSIZE))
    b.s_cbranch_scc1("i_loop")
    b.s_add(s(_CIN_OFF), s(_CIN_OFF), s(_HW_IN))
    b.s_add(s(_CIN_CTR), s(_CIN_CTR), 1)
    b.s_cmp_lt(s(_CIN_CTR), s(_CIN))
    b.s_cbranch_scc1("cin_loop")
    b.v_max(v(9), v(9), 0.0)  # fused ReLU
    b.v_store(v(9), MemAddr(base=s(_OUT), index=v(0)))
    b.s_endpgm()
    return b


def build_pool_program() -> KernelBuilder:
    """2x2 max-pool, stride 2, NCHW (window unrolled)."""
    b = KernelBuilder("pool")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))
    b.v_lshr(v(1), v(0), s(_LOG2_HW))  # channel
    b.v_and(v(2), v(0), s(_MASK_HW))
    b.v_lshr(v(3), v(2), s(_LOG2_W))  # y
    b.v_and(v(4), v(2), s(_MASK_W))  # x
    b.v_mul(v(3), v(3), 2)
    b.v_mul(v(4), v(4), 2)
    b.v_mul(v(5), v(3), s(_W_IN))
    b.v_add(v(5), v(5), v(4))
    b.v_mul(v(6), v(1), s(_HW_IN))
    b.v_add(v(5), v(5), v(6))  # per-lane offset of the window corner
    b.v_mov(v(9), -1e30)
    for i in (0, 1):
        for j in (0, 1):
            b.s_mul(s(_SCR1), s(_W_IN), i)
            b.s_add(s(_SCR1), s(_SCR1), j)
            b.s_add(s(_SCR1), s(_SCR1), s(_IN))
            b.v_load(v(10), MemAddr(base=s(_SCR1), index=v(5)))
            b.s_waitcnt()
            b.v_max(v(9), v(9), v(10))
    b.v_store(v(9), MemAddr(base=s(_OUT), index=v(0)))
    b.s_endpgm()
    return b


def build_add_program() -> KernelBuilder:
    """Elementwise residual add (+ ReLU): out = max(a + b, 0)."""
    b = KernelBuilder("residual_add")
    b.v_lane(v(0))
    b.s_mul(s(3), s(0), WARP_SIZE)
    b.v_add(v(0), v(0), s(3))
    b.v_load(v(1), MemAddr(base=s(_IN), index=v(0)))
    b.v_load(v(2), MemAddr(base=s(_W), index=v(0)))  # second operand
    b.s_waitcnt()
    b.v_add(v(1), v(1), v(2))
    b.v_max(v(1), v(1), 0.0)
    b.v_store(v(1), MemAddr(base=s(_OUT), index=v(0)))
    b.s_endpgm()
    return b


class LayerFactory:
    """Builds layer kernels against one shared memory arena.

    Activations rotate through three buffers (current input, current
    output, residual-skip connection); weights share one pool buffer —
    the values are irrelevant to timing and control flow, only the
    address streams matter.
    """

    def __init__(self, memory: Optional[GlobalMemory] = None,
                 max_act_words: int = 1 << 16,
                 max_weight_words: int = 1 << 17,
                 wg_size: int = 4, seed: int = 11):
        rng = default_rng(seed)
        if memory is None:
            memory = GlobalMemory(
                capacity_words=3 * (max_act_words + 1024)
                + max_weight_words + 4096)
        self.memory = memory
        self.wg_size = wg_size
        self.max_act_words = max_act_words
        self._acts = [
            alloc_normal(memory, f"dnn_act{i}", max_act_words + 1024, rng)
            for i in range(3)
        ]
        self._weights = alloc_normal(memory, "dnn_weights",
                                     max_weight_words, rng)
        self.max_weight_words = max_weight_words
        self._conv = build_conv_program().build()
        self._pool = build_pool_program().build()
        self._add = build_add_program().build()

    def act(self, slot: int) -> int:
        """Base address of activation buffer ``slot`` (0, 1 or 2)."""
        return self._acts[slot % 3]

    def conv2d(self, name: str, h_out: int, w_out: int, c_in: int,
               c_out: int, ksize: int = 3, stride: int = 1,
               in_slot: int = 0, out_slot: int = 1,
               meta: Optional[Dict] = None) -> Kernel:
        """Convolution (+ fused ReLU) kernel launch."""
        out_elems = c_out * h_out * w_out
        if out_elems % WARP_SIZE:
            raise WorkloadError(
                f"{name}: output elements {out_elems} not a multiple of 64")
        trip = c_in * ksize * ksize
        w_in = w_out * stride + ksize
        h_in = h_out * stride + ksize
        hw_in = h_in * w_in
        if c_in * hw_in > self.max_act_words:
            raise WorkloadError(
                f"{name}: input {c_in * hw_in} words exceeds activation "
                f"pool {self.max_act_words}")
        if c_out * trip > self.max_weight_words:
            raise WorkloadError(
                f"{name}: weights {c_out * trip} exceed pool "
                f"{self.max_weight_words}")
        n_warps = out_elems // WARP_SIZE
        args_map = {
            _IN: self.act(in_slot), _W: self._weights,
            _OUT: self.act(out_slot),
            _LOG2_HW: _log2(h_out * w_out, f"{name} H*W"),
            _MASK_HW: h_out * w_out - 1,
            _LOG2_W: _log2(w_out, f"{name} W"),
            _MASK_W: w_out - 1,
            _STRIDE: stride, _W_IN: w_in, _HW_IN: hw_in,
            _KSIZE: ksize, _CIN: c_in, _TRIP: trip,
        }
        kernel_meta = {"layer": name, "h": h_out, "w": w_out,
                       "c_in": c_in, "c_out": c_out, "k": ksize,
                       "stride": stride}
        kernel_meta.update(meta or {})
        return Kernel(
            program=self._conv,
            n_warps=n_warps,
            wg_size=min(self.wg_size, n_warps),
            memory=self.memory,
            args=lambda w, a=dict(args_map): a,
            name=name,
            meta=kernel_meta,
        )

    def dense(self, name: str, n_in: int, n_out: int,
              in_slot: int = 0, out_slot: int = 1) -> Kernel:
        """Fully-connected layer = 1x1 conv over a 1x1 spatial grid."""
        if n_out % WARP_SIZE:
            raise WorkloadError(
                f"{name}: n_out {n_out} not a multiple of 64")
        return self.conv2d(name, h_out=1, w_out=1, c_in=n_in, c_out=n_out,
                           ksize=1, stride=1, in_slot=in_slot,
                           out_slot=out_slot, meta={"dense": True})

    def pool2d(self, name: str, h_out: int, w_out: int, c: int,
               in_slot: int = 0, out_slot: int = 1) -> Kernel:
        """2x2 max pooling, stride 2."""
        out_elems = c * h_out * w_out
        if out_elems % WARP_SIZE:
            raise WorkloadError(
                f"{name}: output elements {out_elems} not a multiple of 64")
        w_in = 2 * w_out + 2
        h_in = 2 * h_out + 2
        args_map = {
            _IN: self.act(in_slot), _OUT: self.act(out_slot),
            _LOG2_HW: _log2(h_out * w_out, f"{name} H*W"),
            _MASK_HW: h_out * w_out - 1,
            _LOG2_W: _log2(w_out, f"{name} W"),
            _MASK_W: w_out - 1,
            _W_IN: w_in, _HW_IN: h_in * w_in,
        }
        return Kernel(
            program=self._pool,
            n_warps=out_elems // WARP_SIZE,
            wg_size=min(self.wg_size, out_elems // WARP_SIZE),
            memory=self.memory,
            args=lambda w, a=dict(args_map): a,
            name=name,
            meta={"layer": name, "pool": True},
        )

    def residual_add(self, name: str, n_elems: int, a_slot: int,
                     b_slot: int, out_slot: int) -> Kernel:
        """Residual connection: out = relu(a + b)."""
        if n_elems % WARP_SIZE:
            raise WorkloadError(
                f"{name}: {n_elems} elements not a multiple of 64")
        args_map = {
            _IN: self.act(a_slot), _W: self.act(b_slot),
            _OUT: self.act(out_slot),
        }
        return Kernel(
            program=self._add,
            n_warps=n_elems // WARP_SIZE,
            wg_size=min(self.wg_size, n_elems // WARP_SIZE),
            memory=self.memory,
            args=lambda w, a=dict(args_map): a,
            name=name,
            meta={"layer": name, "residual": True},
        )
