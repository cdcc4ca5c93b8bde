"""Probe-hash helpers for the open-addressed keymap kernel.

The assignment-map kernel (:mod:`repro.kernels.keymap`) is itself a
double-hashed open-addressed table — the service layer eating its own
dog food: a key's probe sequence is ``start + t * stride (mod capacity)``
with an odd ``stride``, so the sequence visits every slot of the
power-of-two table exactly once (the paper's "two cheap hashes" pitch
applied to the metadata structure, not just the bin placement).

Both probe values are carved out of **one** `splitmix64` finalizer pass
over the key: the high bits give the start slot, the low bits the
stride.  The finalizer matters — the service benchmarks insert
*sequential* key ranges, and a bare multiply-shift start/stride pair is
so correlated on arithmetic key streams that cohort probing degenerates
into hundred-round tails.  Splitmix64's xor-multiply chain breaks that
structure at the cost of three vector multiplies.

The scalar forms are the oracle the vectorized forms are tested
bit-identical against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_PROBE_SEED",
    "probe_start_stride",
    "probe_start_stride_scalar",
    "splitmix64",
    "splitmix64_scalar",
]

#: Default keying constant for the probe hash.  Any fixed value works —
#: the probe layout never leaks into observable keymap results — but a
#: high-entropy constant keeps adversarial key sets out of scope for the
#: default configuration.
DEFAULT_PROBE_SEED = 0x9E3779B97F4A7C15

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
#: Chunk size (elements) for the L2-resident vectorized mix: 2^15 x two
#: uint64 scratch rows = 512 KiB working set, comfortably inside L2.
_HASH_CHUNK = 1 << 15


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a ``uint64`` array.

    The standard Stafford mix13 constants; a bijection on 64-bit words,
    so distinct keys keep distinct probe identities.
    """
    x = (x + _U64(0x9E3779B97F4A7C15)).astype(_U64, copy=False)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def splitmix64_scalar(x: int) -> int:
    """Pure-Python splitmix64 oracle, bit-identical to :func:`splitmix64`."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _check_cap_bits(cap_bits: int) -> None:
    if not 1 <= cap_bits <= 31:
        raise ConfigurationError(
            f"keymap capacity must be 2^1..2^31 slots, got cap_bits={cap_bits}"
        )


def probe_start_stride(
    keys: np.ndarray, cap_bits: int, seed: int = DEFAULT_PROBE_SEED
) -> tuple[np.ndarray, np.ndarray]:
    """Start slot and odd stride per key for a ``2**cap_bits``-slot table.

    One splitmix64 pass per key: the start slot comes from the top
    ``cap_bits`` bits of the mix, the stride from the bottom ``cap_bits``
    bits forced odd — a unit mod the power-of-two capacity, so each
    key's probe sequence is a full cycle.  Returns two ``int32`` arrays
    (capacity is capped at 2^31 slots, so slot arithmetic stays in the
    narrow dtype the gather kernels prefer).

    Parameters
    ----------
    keys:
        1-D ``int64`` key array (any values; the two's-complement bits
        are hashed).
    cap_bits:
        log2 of the table capacity, in ``[1, 31]``.
    seed:
        Keying constant XORed into the key before mixing.
    """
    _check_cap_bits(cap_bits)
    # In-place splitmix64 over L2-resident chunks: the mix is ~13
    # dependent passes over the batch, so streaming the whole array
    # through L3 each pass costs ~3x what 256 KiB working sets do.
    # This runs on every keymap operation's hot path.
    n = keys.size
    start = np.empty(n, dtype=np.int32)
    stride = np.empty(n, dtype=np.int32)
    chunk = min(n, _HASH_CHUNK) or 1
    x = np.empty(chunk, dtype=_U64)
    t = np.empty(chunk, dtype=_U64)
    kv = keys.view(_U64)
    seed64 = _U64(seed & _MASK64)
    sh_hi = _U64(64 - cap_bits)
    lo_mask = _U64((1 << cap_bits) - 1)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = hi - lo
        xm = x[:m]
        tm = t[:m]
        np.bitwise_xor(kv[lo:hi], seed64, out=xm)
        xm += _U64(0x9E3779B97F4A7C15)
        np.right_shift(xm, _U64(30), out=tm)
        xm ^= tm
        xm *= _U64(0xBF58476D1CE4E5B9)
        np.right_shift(xm, _U64(27), out=tm)
        xm ^= tm
        xm *= _U64(0x94D049BB133111EB)
        np.right_shift(xm, _U64(31), out=tm)
        xm ^= tm
        np.right_shift(xm, sh_hi, out=tm)
        start[lo:hi] = tm
        xm &= lo_mask
        stride[lo:hi] = xm
    stride |= np.int32(1)
    return start, stride


def probe_start_stride_scalar(
    key: int, cap_bits: int, seed: int = DEFAULT_PROBE_SEED
) -> tuple[int, int]:
    """Scalar oracle for :func:`probe_start_stride` (one Python-int key)."""
    _check_cap_bits(cap_bits)
    mix = splitmix64_scalar((key & _MASK64) ^ (seed & _MASK64))
    return mix >> (64 - cap_bits), (mix & ((1 << cap_bits) - 1)) | 1
