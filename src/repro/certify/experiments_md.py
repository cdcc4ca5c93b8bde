"""EXPERIMENTS.md: the deterministic emitter and the cheap drift check.

Two jobs live here:

- :func:`render_experiments_md` regenerates the whole document — it runs
  every table experiment at the documented reduced scale with pinned
  seeds, so two runs on one backend produce byte-identical output
  (there is deliberately no timestamp or timing line).  Paper columns
  come from the anchor registry, never from literals in this file.
- :func:`check_experiments_md_drift` verifies that the *committed*
  document's paper columns agree with the registry — a transcription
  edit that forgets to regenerate the document fails CI.  It only
  parses markdown; no experiments run, so it is fast enough for every
  push.

``python -m repro certify --emit-experiments-md`` runs the renderer and
``--check-drift`` the drift check.
"""

from __future__ import annotations

from pathlib import Path

from repro.certify.anchors import anchor_value, paper_values

__all__ = ["check_experiments_md_drift", "fmt_fraction", "render_experiments_md"]

_SCALE_NOTE = (
    "Measured columns regenerated by"
    " `python -m repro certify --emit-experiments-md`"
    " at reduced scale (see the per-table parameters); paper columns"
    " transcribed once in `repro.certify.anchors`.  Sampling error at these"
    " scales is a few units in the fourth decimal place for load fractions."
    "  Statistical certification of these columns: `python -m repro certify`"
    " (see docs/certification.md)."
)

# Static analysis sections maintained by hand; paper-derived constants are
# interpolated from the registry so they are never transcribed twice.
_APPENDIX = """## Theory sections (bench_theory.py)

| Paper result | Executable check | Outcome |
|---|---|---|
| Theorem 2 (majorization coupling) | `coupled_majorization_run` verifies the sorted-load majorization invariant after **every ball** of a coupled 2-random vs d-double run | holds on every tested (n, d, seed), incl. hypothesis-randomized geometries |
| Theorem 4 (witness tree) | observed max loads vs `witness_tree_bound` = `log_d log_2 n + 4d` | all simulated max loads <= bound - 8 (bound is loose, as the paper notes) |
| Lemma 6 (ancestry size) | exact ancestry lists from recorded histories, sizes vs `8*ln n` at T = 0.15 | max sizes 3-8 for n = 2^9..2^13, flat in n |
| Lemma 7 (disjointness) | `disjointness_rate` of a fresh ball's d ancestry lists | rises with n, > 0.9 at n = 2^12 (rate 1 - O(d^2 log^2 n / n)) |
| Lemma 6 (branching domination) | Galton-Watson population vs `e^(T*d(d-1))`, Karp-Zhang tail | mean within 20%, tail decays geometrically in gamma |
| Appendix B (layered induction) | simulated z_i vs the beta_i envelope (beta_6 = n/2e, beta_(i+1) = 4*beta_i^d/n^(d-1)) | all level counts below the envelope |

## Scale substitutions

See DESIGN.md par.4.  In brief: trials reduced from 10^4 to 40-400 (sampling
envelopes reported alongside); queueing n reduced from 2^14 to 2^10 and the
horizon from 10^4 s to 2*10^3 s (the closed-form fluid equilibrium provides
the scale-free reference, itself matching the paper's column to <= 2.5e-3);
heavy-load bins reduced 4x at fixed balls-per-bin = 16.  Every experiment
function accepts paper-scale parameters unchanged — aggregation is
streaming, so memory does not grow with trials.

## Peeling (follow-up paper [30]; bench_peeling.py)

Density sweep on d = 3 random hypergraphs, n = 4096 vertices, 10 trials
per cell (`examples/peeling_codes.py`):

| density | P(complete) random | P(complete) double | core frac random | core frac double | DE core |
|---|---|---|---|---|---|
| 0.70 | 1.00 | 0.40 | 0.0000 | 0.0006 | 0.0000 |
| 0.76 | 1.00 | 0.40 | 0.0000 | 0.0007 | 0.0000 |
| 0.80 | 0.90 | 0.20 | 0.0376 | 0.0403 | 0.0000 |
| 0.84 | 0.00 | 0.00 | 0.5077 | 0.5270 | 0.5185 |
| 0.88 | 0.00 | 0.00 | 0.6203 | 0.6235 | 0.6240 |
| 0.95 | 0.00 | 0.00 | 0.7320 | 0.7283 | 0.7319 |

Reading: *core fractions* (the fluid-limit observable) agree between
schemes and match density evolution; *complete recovery* under double
hashing fails at a constant rate below threshold.  Every such failure was
verified to be a duplicate-hyperedge 2-core — the paper's footnote-1
example (`Pr[k balls share a d-set] = O(n^(-2k))` vs `O(n^(-dk))`)
surfacing as an engineering constraint for IBLTs/erasure codes.

## Additional quantitative checks

- **Lemma 5 drift** (`analysis.drift`): empirical increment rate of X_i
  within a window matches `x_(i-1)^d - x_i^d` within ~2 binomial standard
  errors at n = 2^13, for both schemes, at levels 1 and 2; the gap shrinks
  with n.
- **Wormald deviation** (`fluid.wormald`): max-over-path deviation from the
  ODE trajectory decays like n^(-gamma) with gamma ~= 0.5 (CLT scale); at
  n = 2048 the worst deviation over 6 checkpoints and levels 1-3 is < 1%.
- **Peeling thresholds** (`peeling.density_evolution`): {p3} / {p4} /
  {p5} for d = 3/4/5, matching the literature to 5 decimals.
- **Scheme zoo** (`experiments.extra`): KP blocks (the other 2-value
  scheme) show a measurable distribution shift (+0.8 pp empty bins at
  d = 4) while double hashing shows none — the contrast that makes the
  paper's result non-trivial.
"""


def fmt_fraction(x: float) -> str:
    """Format a load fraction the way every EXPERIMENTS.md table does."""
    if x == 0:
        return "0"
    if abs(x) < 5e-5:
        return f"{x:.2e}"
    return f"{x:.5f}"


def _appendix() -> str:
    return _APPENDIX.format(
        p3=anchor_value("derived/peeling-threshold/d3"),
        p4=anchor_value("derived/peeling-threshold/d4"),
        p5=anchor_value("derived/peeling-threshold/d5"),
    )


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def render_experiments_md(*, metrics=None, progress=None) -> str:
    """Regenerate the full EXPERIMENTS.md document (runs experiments).

    Seeds are pinned per table, so output is deterministic for a given
    kernel backend (the backends are bit-identical, so in practice for
    any backend).  Takes a few minutes at the documented scales.
    """
    # Imported lazily: the drift check must stay importable without
    # touching the experiment stack.
    from repro.experiments import (
        ExperimentSpec,
        table1_load_fractions,
        table2_fluid_vs_simulation,
        table3_larger_n,
        table4_max_load,
        table5_level_stats,
        table6_heavy_load,
        table7_dleft,
        table8_queueing,
    )

    paper = paper_values()
    lines: list[str] = []
    emit = lines.append
    kw = {"metrics": metrics, "progress": progress}

    emit("# EXPERIMENTS — paper vs. measured")
    emit("")
    emit(_SCALE_NOTE)
    emit("")

    emit("## Table 1 — load fractions, n = 2^14 balls and bins")
    emit("")
    for d in (3, 4):
        t = table1_load_fractions(
            ExperimentSpec(n=2**14, d=d, trials=400, seed=1), **kw
        )
        paper_r = paper["table1"][(d, "random")]
        paper_d = paper["table1"][(d, "double")]
        emit(f"### {d} choices (trials=400 here vs 10000 in the paper)")
        emit("")
        emit("| Load | paper random | measured random | paper double | measured double |")
        emit("|---|---|---|---|---|")
        for load, rand, dbl in t.rows:
            pr = fmt_fraction(paper_r[load]) if load in paper_r else "-"
            pd = fmt_fraction(paper_d[load]) if load in paper_d else "-"
            emit(f"| {load} | {pr} | {fmt_fraction(rand)} | {pd} | {fmt_fraction(dbl)} |")
        emit("")

    emit("## Table 2 — fluid limit vs simulation, 3 choices, n = 2^14")
    emit("")
    t = table2_fluid_vs_simulation(
        ExperimentSpec(n=2**14, d=3, trials=400, seed=2), **kw
    )
    p2 = paper["table2"]
    emit("| Tail load | paper fluid | measured fluid | paper random | measured random | paper double | measured double |")
    emit("|---|---|---|---|---|---|---|")
    for load, fluid, rand, dbl in t.rows:
        if load in p2["fluid"]:
            emit(
                f"| >= {load} | {fmt_fraction(p2['fluid'][load])} | {fmt_fraction(fluid)} |"
                f" {fmt_fraction(p2['random'][load])} | {fmt_fraction(rand)} |"
                f" {fmt_fraction(p2['double'][load])} | {fmt_fraction(dbl)} |"
            )
    emit("")

    emit("## Table 3 — larger n (here 2^16; paper also reports 2^18)")
    emit("")
    for d in (3, 4):
        t = table3_larger_n(
            ExperimentSpec(d=d, log2_n=16, trials=60, seed=3), **kw
        )
        paper_r = paper["table3"][(16, d, "random")]
        paper_d = paper["table3"][(16, d, "double")]
        emit(f"### {d} choices, n = 2^16 (trials=60 here vs 10000)")
        emit("")
        emit("| Load | paper random | measured random | paper double | measured double |")
        emit("|---|---|---|---|---|")
        for load, rand, dbl in t.rows:
            pr = fmt_fraction(paper_r[load]) if load in paper_r else "-"
            pd = fmt_fraction(paper_d[load]) if load in paper_d else "-"
            emit(f"| {load} | {pr} | {fmt_fraction(rand)} | {pd} | {fmt_fraction(dbl)} |")
        emit("")

    emit("## Table 4 — % of trials with maximum load 3")
    emit("")
    for d, sizes in ((3, (10, 11, 12, 13, 14)), (4, (10, 12, 14))):
        t = table4_max_load(
            ExperimentSpec(d=d, trials=400, seed=4), log2_n_values=sizes,
            **kw,
        )
        p4r = paper["table4"][(d, "random")]
        p4d = paper["table4"][(d, "double")]
        emit(f"### {d} choices (trials=400 here vs 10000)")
        emit("")
        emit("| n | paper random | measured random | paper double | measured double |")
        emit("|---|---|---|---|---|")
        for (label, rand, dbl), log2_n in zip(t.rows, sizes):
            emit(
                f"| {label} | {p4r.get(log2_n, '-')} | {rand:.2f} |"
                f" {p4d.get(log2_n, '-')} | {dbl:.2f} |"
            )
        emit("")

    emit("## Table 5 — per-load count statistics, 4 choices")
    emit("")
    emit("Paper used n = 2^18; here n = 2^16 with trials=60, so compare the")
    emit("*relative* spread (std/mean) and the mean/n fractions.")
    emit("")
    t = table5_level_stats(ExperimentSpec(n=2**16, d=4, trials=60, seed=5), **kw)
    emit("| Scheme | Load | min | avg | max | std | avg/n | paper avg/n |")
    emit("|---|---|---|---|---|---|---|---|")
    p5 = paper["table5"]
    for scheme, load, mn, avg, mx, std in t.rows:
        ref = p5[scheme].get(load)
        paper_frac = f"{ref['avg'] / 2**18:.5f}" if ref else "-"
        emit(
            f"| {scheme} | {load} | {mn} | {avg:.2f} | {mx} | {std:.2f} |"
            f" {avg / 2**16:.5f} | {paper_frac} |"
        )
    emit("")

    emit("## Table 6 — heavily loaded: 16 balls per bin")
    emit("")
    for d in (3, 4):
        t = table6_heavy_load(
            ExperimentSpec(n=2**12, d=d, trials=40, seed=6),
            balls_per_bin=16, **kw,
        )
        paper_r = paper["table6"][(d, "random")]
        emit(f"### {d} choices, 2^16 balls into 2^12 bins (paper: 2^18 into 2^14)")
        emit("")
        emit("| Load | paper random | measured random | measured double | fluid limit |")
        emit("|---|---|---|---|---|")
        for load, rand, dbl, fluid in t.rows:
            pr = fmt_fraction(paper_r[load]) if load in paper_r else "-"
            emit(f"| {load} | {pr} | {fmt_fraction(rand)} | {fmt_fraction(dbl)} | {fmt_fraction(fluid)} |")
        emit("")

    emit("## Table 7 — Vöcking's d-left scheme, 4 choices, n = 2^14")
    emit("")
    t = table7_dleft(ExperimentSpec(n=2**14, d=4, trials=400, seed=7))
    paper_r = paper["table7"][(14, "random")]
    paper_d = paper["table7"][(14, "double")]
    emit("| Load | paper random | measured random | paper double | measured double | fluid |")
    emit("|---|---|---|---|---|---|")
    for load, rand, dbl, fluid in t.rows:
        pr = fmt_fraction(paper_r[load]) if load in paper_r else "-"
        pd = fmt_fraction(paper_d[load]) if load in paper_d else "-"
        emit(f"| {load} | {pr} | {fmt_fraction(rand)} | {pd} | {fmt_fraction(dbl)} | {fmt_fraction(fluid)} |")
    emit("")

    emit("## Table 8 — supermarket model, mean time in system")
    emit("")
    emit("Paper: n = 2^14 queues, 100 runs x 10000 s.  Here: n = 2^10,")
    emit("one run of 2000 s per cell (burn-in 200 s).  The fluid equilibrium")
    emit("column is exact and scale-free.")
    emit("")
    t = table8_queueing(
        ExperimentSpec(n=2**10, sim_time=2000.0, burn_in=200.0, seed=8),
        lambdas=(0.9, 0.99), d_values=(3, 4),
    )
    p8 = paper["table8"]
    emit("| lambda | d | paper random | measured random | paper double | measured double | fluid eq. |")
    emit("|---|---|---|---|---|---|---|")
    for lam, d, rand, dbl, fluid in t.rows:
        pr = p8[(lam, d, "random")]
        pd = p8[(lam, d, "double")]
        emit(
            f"| {lam} | {d} | {pr} | {rand:.5f} | {pd} | {dbl:.5f} |"
            f" {fluid:.5f} |"
        )
    emit("")
    _emit_scheme_sweep(emit, metrics=metrics, progress=progress)
    emit(_appendix())
    return "\n".join(lines)


def _emit_scheme_sweep(emit, *, metrics=None, progress=None) -> None:
    """The hash-family-zoo section: every keyed family vs fully random.

    Guarantee and citation columns render from
    :data:`repro.hashing.registry.SCHEME_INFO` — the drift check
    compares the committed document against that registry, preserving
    the single-transcription invariant for the zoo's theory columns.
    """
    from repro.experiments import ExperimentSpec
    from repro.experiments.tables import scheme_sweep
    from repro.hashing.registry import SCHEME_INFO, ZOO_FAMILIES

    sweep = scheme_sweep(
        ExperimentSpec(n=2**12, d=3, trials=50, seed=9), ZOO_FAMILIES,
        metrics=metrics, progress=progress,
    )
    emit("## Hash-family zoo — scheme equivalence sweep")
    emit("")
    emit("Every keyed family vs the fully-random baseline at n = 2^12,")
    emit("d = 3, trials = 50 (challenger k seeded 9 + 1 + k, the certifier's")
    emit("convention): chi-square homogeneity p on the load law and mean")
    emit("per-trial max load.  Guarantee/citation columns render from")
    emit("`repro.hashing.SCHEME_INFO`; `python -m repro certify` runs the")
    emit("same sweep under Holm-corrected envelopes at n up to 2^24 (the")
    emit("`schemes` cells; see docs/hash-families.md).")
    emit("")
    emit("| Scheme | guarantee | citation | chi2 p vs random | mean max load | random mean max |")
    emit("|---|---|---|---|---|---|")
    for name, p, mean_max, base_max in sweep.rows:
        info = SCHEME_INFO[name]
        emit(
            f"| {name} | {info.guarantee} | {info.citation} |"
            f" {p:.3f} | {mean_max:.2f} | {base_max:.2f} |"
        )
    emit("")


# --------------------------------------------------------------------------
# Drift check
# --------------------------------------------------------------------------


def _parse_tables(text: str) -> dict[tuple[str, str], list[dict[str, str]]]:
    """Parse every markdown table, keyed by its (##, ###) section headers.

    Each table becomes a list of ``{column_name: cell}`` row dicts.
    """
    tables: dict[tuple[str, str], list[dict[str, str]]] = {}
    section = subsection = ""
    header: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("## ") and not line.startswith("### "):
            section, subsection, header = line[3:].strip(), "", None
        elif line.startswith("### "):
            subsection, header = line[4:].strip(), None
        elif line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if header is None:
                header = cells
                tables.setdefault((section, subsection), [])
            elif all(set(c) <= {"-", ":", " "} for c in cells):
                continue  # separator row
            else:
                tables[(section, subsection)].append(
                    dict(zip(header, cells))
                )
        else:
            header = None
    return tables


def _expectations() -> list[tuple[str, str, dict[str, str], dict[str, str]]]:
    """Expected paper-column cells, derived from the registry.

    Each entry is ``(section_prefix, subsection_prefix, row_selector,
    expected_cells)`` where both dicts map column names to cell strings.
    """
    paper = paper_values()
    exp: list[tuple[str, str, dict[str, str], dict[str, str]]] = []

    for table, section in (("table1", "Table 1"), ("table3", "Table 3")):
        for key, cells in paper[table].items():
            d, role = (key[0], key[1]) if table == "table1" else (key[1], key[2])
            if table == "table3" and key[0] != 16:
                continue  # the document reports the 2^16 runs
            col = f"paper {role}"
            for load, value in cells.items():
                exp.append((
                    section, f"{d} choices",
                    {"Load": str(load)},
                    {col: fmt_fraction(value)},
                ))
    for role in ("fluid", "random", "double"):
        for load, value in paper["table2"][role].items():
            exp.append((
                "Table 2", "",
                {"Tail load": f">= {load}"},
                {f"paper {role}": fmt_fraction(value)},
            ))
    for (d, role), cells in paper["table4"].items():
        sizes = {3: (10, 11, 12, 13, 14), 4: (10, 12, 14)}[d]
        for log2_n, value in cells.items():
            if log2_n not in sizes:
                continue
            exp.append((
                "Table 4", f"{d} choices",
                {"n": f"2^{log2_n}"},
                {f"paper {role}": str(value)},
            ))
    for role, cells in paper["table5"].items():
        for load, stats in cells.items():
            exp.append((
                "Table 5", "",
                {"Scheme": role, "Load": str(load)},
                {"paper avg/n": f"{stats['avg'] / 2**18:.5f}"},
            ))
    for (d, role), cells in paper["table6"].items():
        if role != "random":
            continue  # the document prints only the random paper column
        for load, value in cells.items():
            exp.append((
                "Table 6", f"{d} choices",
                {"Load": str(load)},
                {"paper random": fmt_fraction(value)},
            ))
    for (log2_n, role), cells in paper["table7"].items():
        if log2_n != 14:
            continue
        for load, value in cells.items():
            exp.append((
                "Table 7", "",
                {"Load": str(load)},
                {f"paper {role}": fmt_fraction(value)},
            ))
    for (lam, d, role), value in paper["table8"].items():
        exp.append((
            "Table 8", "",
            {"lambda": str(lam), "d": str(d)},
            {f"paper {role}": str(value)},
        ))
    # Hash-family zoo: the theory columns must match the scheme registry
    # (repro.hashing is import-light, so the drift check stays cheap).
    from repro.hashing.registry import SCHEME_INFO, ZOO_FAMILIES

    for name in ZOO_FAMILIES:
        info = SCHEME_INFO[name]
        exp.append((
            "Hash-family zoo", "",
            {"Scheme": name},
            {"guarantee": info.guarantee, "citation": info.citation},
        ))
    return exp


def check_experiments_md_drift(path: str | Path = "EXPERIMENTS.md") -> list[str]:
    """Compare a committed EXPERIMENTS.md against the anchor registry.

    Returns a list of human-readable problems (empty when in sync).
    Only the paper columns are compared — measured columns legitimately
    change when the document is regenerated — so this check never needs
    to run an experiment.
    """
    path = Path(path)
    if not path.exists():
        return [f"{path} does not exist"]
    tables = _parse_tables(path.read_text())
    problems: list[str] = []
    for section, subsection, selector, expected in _expectations():
        rows = [
            row
            for (sec, sub), body in tables.items()
            if sec.startswith(section) and sub.startswith(subsection)
            for row in body
        ]
        match = [
            row for row in rows
            if all(row.get(col) == val for col, val in selector.items())
        ]
        where = f"{section}/{subsection or '-'} {selector}"
        if not match:
            problems.append(f"no row found for {where}")
            continue
        for col, val in expected.items():
            got = match[0].get(col)
            if got != val:
                problems.append(
                    f"{where}: column {col!r} is {got!r}, registry says {val!r}"
                )
    return problems
