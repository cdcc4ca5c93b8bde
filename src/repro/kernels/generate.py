"""Packed-choice layout planning and generation for the placement kernels.

The kernel backends in this package all consume the same input encoding:
every candidate bin of every pending ball is packed into one integer::

    packed = tie_key << cidx_bits  |  trial * (n_bins + 1) + bin

The low ``cidx_bits`` hold the *flat candidate index* — the bin index
offset by its trial's row start in a padded ``(trials, n_bins + 1)`` load
table — and the high ``tie_bits`` hold the tie-break key.  Prepending the
current load gives the full 64-bit comparison key

    key = load << key_shift  |  tie_key << cidx_bits  |  flat_index

whose *minimum over the d candidates* simultaneously decides the placement
(lexicographic on ``(load, tie_key, bin)``) and, via its low bits, *is* the
chosen flat bin index — no argmin/advanced-indexing machinery needed.
Field widths are selected and guarded by :mod:`repro.kernels.packing`.

Tie semantics
-------------
- ``tie_break="random"``: ``tie_key`` is uniform random (``tie_bits`` wide,
  default 10).  Candidates that collide on both load and tie key fall back
  to the lower bin index — a per-tie bias of order ``2**-tie_bits``, far
  below the sampling error of any experiment in the paper (the
  cross-engine equivalence tests in ``tests/kernels`` verify this).
- ``tie_break="left"``: ``tie_key`` is the candidate's *column index*, so
  the minimum key reproduces numpy's first-minimum ``argmin`` exactly —
  including for non-partitioned schemes, where "left" means leftmost
  choice position, not lowest bin index.

Padding
-------
Each trial owns one *dummy bin* (index ``n_bins``) and each generated
block one *dummy ball* (column ``steps``) whose candidates all point at
the dummy bin.  Kernel windows past the end of a trial's ball sequence
park on the dummy ball; it is never committed and the dummy bin never
collides with a real candidate.

Capacity: narrow and wide layouts
---------------------------------
The historical layout packs candidates into int32 with
``key_shift == 31`` (``tie_bits + cidx_bits == 31``), which caps the
table near ``n ≈ 2**23`` for random tie-breaking.  Those *narrow*
layouts are still planned first — their draw streams and results are
bit-identical to every earlier release.  When ``n_bins`` outgrows the
int32 address space, :func:`plan_layout` now plans a *wide* layout
instead: candidates packed into int64, ``key_shift = tie_bits +
cidx_bits`` sized to the table, and the remaining ``63 - key_shift``
bits (:attr:`KernelLayout.load_bits`) left for the load field.  Wide
layouts keep the whole fused-kernel machinery (and the giant-``n``
scale-out, see ``docs/scale.md``) instead of dropping to the strided
engine; the load field is overflow-checked after every trial chunk
(loads only grow, so a final load under ``2**load_bits`` proves no
intermediate key ever wrapped).  ``plan_layout`` returns ``None`` only
when even the wide layout cannot host the geometry.  Trials are
processed in chunks of :attr:`KernelLayout.trial_chunk` so the flat
index also stays within the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.base import ChoiceScheme
from repro.hashing.double_hashing import DoubleHashingChoices
from repro.kernels.packing import (
    INT32_VALUE_BITS,
    INT64_VALUE_BITS,
    check_packed_fields,
    field_width,
    select_tie_bits,
)

__all__ = [
    "KEY_SHIFT",
    "KernelLayout",
    "generate_packed",
    "plan_layout",
]

# The narrow layout's load-field shift: loads sit above the 31 packed bits
# of an int32 candidate; int64 keys then support loads up to 2**32.
KEY_SHIFT = INT32_VALUE_BITS

_RANDOM_TIE_BITS = 10       # default tie-key width for "random"
_MIN_RANDOM_TIE_BITS = 8    # trade down to here before going wide
# Per-plane element cap on the packed-choice buffer (~8 MiB of int32 per
# choice plane) so trial chunking also bounds generation scratch.
_MAX_PLANE_ELEMENTS = 2 << 20
# Wide layouts additionally cap the padded load table per trial chunk
# (elements, not bytes): 2**24 int32 entries is 64 MiB of table plus the
# same again of stamp scratch — the memory model documented in
# ``docs/scale.md``.  Narrow layouts keep their historical chunking
# untouched (it is part of the pinned draw stream).
_MAX_TABLE_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class KernelLayout:
    """Bit layout and chunking plan for one packed-kernel run."""

    n_bins: int
    d: int
    tie_break: str
    tie_bits: int
    cidx_bits: int
    trial_chunk: int
    key_shift: int = KEY_SHIFT
    wide: bool = False

    @property
    def bins_p(self) -> int:
        """Bins per trial including the dummy padding bin."""
        return self.n_bins + 1

    @property
    def cidx_mask(self) -> np.int64:
        """Mask extracting the flat candidate index from a packed value."""
        return np.int64((1 << self.cidx_bits) - 1)

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the packed candidate arrays (int32 narrow, int64 wide)."""
        return np.dtype(np.int64) if self.wide else np.dtype(np.int32)

    @property
    def load_bits(self) -> int:
        """Value bits available to the load field of the comparison key."""
        return (INT64_VALUE_BITS + 1) - self.key_shift if not self.wide else (
            INT64_VALUE_BITS - self.key_shift
        )


def plan_layout(
    n_bins: int, d: int, tie_break: str, trials: int, block: int
) -> KernelLayout | None:
    """Plan the packed layout, or ``None`` when no layout can host it.

    ``block`` is the ball-steps-per-generation superblock; it only bounds
    the trial chunk via the scratch-memory cap.  Narrow (int32) layouts
    are planned exactly as in previous releases — bit-identical streams —
    and wide (int64) layouts take over beyond the int32 address space.
    """
    bins_p = n_bins + 1
    if tie_break == "left":
        preferred = minimum = field_width(d)
    else:
        preferred = _RANDOM_TIE_BITS if d > 1 else 0
        minimum = min(preferred, _MIN_RANDOM_TIE_BITS)
    tie_bits = select_tie_bits(
        bins_p, preferred=preferred, minimum=minimum,
        address_bits=KEY_SHIFT,
    )
    if tie_bits is not None:
        cidx_bits = KEY_SHIFT - tie_bits
        chunk = min(
            trials,
            (1 << cidx_bits) // bins_p,
            max(1, _MAX_PLANE_ELEMENTS // (block + 1)),
        )
        return KernelLayout(
            n_bins=n_bins,
            d=d,
            tie_break=tie_break,
            tie_bits=tie_bits,
            cidx_bits=cidx_bits,
            trial_chunk=max(1, chunk),
        )
    return _plan_wide(n_bins, d, tie_break, trials, block, preferred)


def _plan_wide(
    n_bins: int,
    d: int,
    tie_break: str,
    trials: int,
    block: int,
    tie_bits: int,
) -> KernelLayout | None:
    """Wide (int64-packed) layout for tables beyond the int32 space."""
    bins_p = n_bins + 1
    chunk = max(
        1,
        min(
            trials,
            _MAX_TABLE_ELEMENTS // bins_p,
            max(1, _MAX_PLANE_ELEMENTS // (block + 1)),
        ),
    )
    # Cap the flat index at 31 bits: every cidx bit past that comes out
    # of the key's load field, and a larger table would not fit memory
    # anyway (the kernel's index scratch is intp, so it sets no cap).
    while chunk > 1 and bins_p * chunk > (1 << INT32_VALUE_BITS):
        chunk -= 1
    cidx_bits = field_width(bins_p * chunk)
    if cidx_bits > INT32_VALUE_BITS:
        return None
    key_shift = tie_bits + cidx_bits
    try:
        check_packed_fields(
            # At least one value bit must remain for the load field.
            {"load": 1, "tie": tie_bits, "cidx": cidx_bits},
            carrier_bits=INT64_VALUE_BITS,
            context=f"wide placement layout (n_bins={n_bins}, d={d})",
        )
    except Exception:
        return None
    return KernelLayout(
        n_bins=n_bins,
        d=d,
        tie_break=tie_break,
        tie_bits=tie_bits,
        cidx_bits=cidx_bits,
        trial_chunk=chunk,
        key_shift=key_shift,
        wide=True,
    )


def generate_packed(
    scheme: ChoiceScheme,
    trials: int,
    steps: int,
    rng: np.random.Generator,
    layout: KernelLayout,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Packed candidates for ``steps`` balls of ``trials`` trials.

    Returns a ``(d, trials, steps + 1)`` array of :attr:`KernelLayout.dtype`;
    column ``steps`` is the dummy ball.  Plane ``j`` holds candidate ``j``
    of every ball — the planar layout keeps each kernel gather contiguous
    per plane.  ``out``, when given, is that array (it may be a column
    slice of a wider one, whose next superblock then overwrites the
    dummy column); the draws do not depend on it.
    """
    d = layout.d
    n = layout.n_bins
    pc = out
    if pc is None:
        pc = np.empty((d, trials, steps + 1), dtype=layout.dtype)
    toff = np.arange(trials, dtype=np.int64) * np.int64(layout.bins_p)
    if not layout.wide:
        toff = toff.astype(np.int32)
    pc[:, :, steps] = toff + n
    if steps == 0:
        return pc
    if _fused_double_pow2_ok(scheme, layout):
        _fill_double_pow2(trials, steps, rng, layout, pc, toff)
    else:
        _fill_generic(scheme, trials, steps, rng, layout, pc, toff)
    return pc


def _fused_double_pow2_ok(scheme: ChoiceScheme, layout: KernelLayout) -> bool:
    """Whether the single-draw double-hashing fast path applies.

    One uint64 per ball supplies ``f`` (``log2 n`` bits), the odd stride
    ``g`` (``log2 n - 1`` bits), and all ``d`` tie keys — so the whole
    choice block needs exactly one RNG call per generation chunk.
    """
    n = layout.n_bins
    if type(scheme) is not DoubleHashingChoices:
        return False
    if layout.tie_break != "random":
        return False
    if n < 2 or n & (n - 1):
        return False
    lb = n.bit_length() - 1
    return lb + (lb - 1) + layout.d * layout.tie_bits <= 64


def _fill_double_pow2(
    trials: int,
    steps: int,
    rng: np.random.Generator,
    layout: KernelLayout,
    pc: np.ndarray,
    toff: np.ndarray,
    chunk: int = 1024,
) -> None:
    """Fused power-of-two double-hashing generation (see above)."""
    n = layout.n_bins
    d = layout.d
    lb = n.bit_length() - 1
    tie_bits = layout.tie_bits
    nbits = lb + (lb - 1) + d * tie_bits
    tie_mask = np.uint64((1 << tie_bits) - 1)
    dt = layout.dtype
    # Branchless wrap uses the sign bit of the working dtype.
    sign_shift = 63 if layout.wide else 31
    toff2 = toff[:, None]
    # Column-chunked so every per-chunk temporary stays L2-resident.
    for c0 in range(0, steps, chunk):
        c1 = min(c0 + chunk, steps)
        raw = rng.integers(0, 1 << nbits, size=(trials, c1 - c0), dtype=np.uint64)
        f = (raw & np.uint64(n - 1)).astype(dt)
        g = ((raw >> np.uint64(lb)) & np.uint64(max(n // 2 - 1, 0))).astype(dt)
        g += g
        g += 1  # force odd: exactly the units mod 2**k
        cur = f
        shift = 2 * lb - 1
        for j in range(d):
            if j:
                # Branchless modular stride: cur = (cur + g) mod n without
                # a division (cur + g < 2n is guaranteed).
                cur += g
                cur -= n
                wrap = cur >> sign_shift
                wrap &= n
                cur += wrap
            bits = ((raw >> np.uint64(shift)) & tie_mask).astype(dt)
            shift += tie_bits
            out = pc[j, :, c0:c1]
            np.left_shift(bits, layout.cidx_bits, out=out)
            out += cur
            out += toff2


def _fill_generic(
    scheme: ChoiceScheme,
    trials: int,
    steps: int,
    rng: np.random.Generator,
    layout: KernelLayout,
    pc: np.ndarray,
    toff: np.ndarray,
) -> None:
    """Any-scheme generation via :meth:`ChoiceScheme.batch_planar`."""
    d = layout.d
    planar = scheme.batch_planar(trials * steps, rng)
    choices = planar.reshape(d, trials, steps)
    out = pc[:, :, :steps]
    if layout.tie_break == "random" and layout.tie_bits and d > 1:
        bits = rng.integers(
            0, 1 << layout.tie_bits, size=(d, trials, steps),
            dtype=layout.dtype,
        )
        np.left_shift(bits, layout.cidx_bits, out=bits)
        np.add(bits, choices, out=out, casting="unsafe")
    else:
        np.copyto(out, choices, casting="unsafe")
        if layout.tie_break == "left" and layout.tie_bits:
            cols = np.arange(d, dtype=layout.dtype) << layout.cidx_bits
            out += cols[:, None, None]
    out += toff[:, None]
