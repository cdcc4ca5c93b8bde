"""EXPERIMENTS.md: the report of one certification, and its drift check.

- :func:`render_experiments_md` prints the document from a
  :class:`~repro.certify.runner.Certification`.  Each section is one of
  its runs, in run order.  Each measured cell is read from what that
  run's certifier judged (``Certification.judged``), with the mark of
  the check on that cell beside it, and every other check of the run
  gets one line under its table.  Nothing is run or recomputed here.
  The text holds no timestamp, wall clock or worker count, so a tier
  renders byte-identically at any ``--workers``.
- :func:`check_experiments_md_drift` checks that every paper cell a
  committed document prints agrees with the anchor registry.  It only
  parses markdown, so it is fast enough for every push.

``python -m repro certify --tier standard --emit-experiments-md`` writes
the committed document; ``--check-drift`` runs the drift check.
"""

from __future__ import annotations

from pathlib import Path

from repro.certify.anchors import REGISTRY, TABLE5_PAPER_N, paper_values

__all__ = ["check_experiments_md_drift", "fmt_fraction", "render_experiments_md"]

PASS, FAIL = "✓", "✗"


def fmt_fraction(x: float) -> str:
    """Format a load fraction the way every EXPERIMENTS.md table does."""
    if x == 0:
        return "0"
    if abs(x) < 5e-5:
        return f"{x:.2e}"
    return f"{x:.5f}"


def _pow2(n: int) -> str:
    """``2^k`` for a power of two, else ``n``."""
    return f"2^{n.bit_length() - 1}" if n > 0 and n & (n - 1) == 0 else str(n)


def _row(*cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def _paper(anchor_id: str, fmt=fmt_fraction) -> str:
    """The registry's value for ``anchor_id``, or ``-`` when it has none."""
    a = REGISTRY.get(anchor_id)
    return "-" if a is None else fmt(a.value)


class _Run:
    """One run of a certification: its parameters, what its certifier
    judged, and its checks, each printed once.

    A run's checks carry its table and variant; the per-point checks of
    Table 4 and of the zoo suffix the variant with ``-<point>``.
    """

    def __init__(self, cert, record):
        self.table, self.variant = record.table, record.variant
        self.params = record.params
        self.judged = cert.judged[(record.table, record.variant)]
        self.checks = [
            c for c in cert.checks
            if c.table == record.table
            and (c.variant == record.variant
                 or c.variant.startswith(record.variant + "-"))
        ]
        self._by_key = {c.check_id: c for c in self.checks}
        self._by_key.update(
            (c.anchor_id, c) for c in self.checks if c.kind == "anchor"
        )
        self._shown: set[str] = set()

    def check(self, key: str):
        """The check with this check id, or the anchor check of this
        anchor id."""
        return self._by_key.get(key)

    def cell(self, text: str, key: str) -> str:
        """``text``, with the mark of the check ``key`` finds if any."""
        check = self.check(key)
        if check is None:
            return text
        self._shown.add(check.check_id)
        return f"{text} {PASS if check.passed else FAIL}"

    def pair(self, anchor_id: str, text: str, fmt=fmt_fraction):
        """The paper cell of ``anchor_id``, then the measured ``text``."""
        return _paper(anchor_id, fmt), self.cell(text, anchor_id)

    def lines(self) -> list[str]:
        """One line for each check that no cell showed."""
        return [_check_line(c) for c in self.checks
                if c.check_id not in self._shown]


def _check_line(c) -> str:
    values = []
    if c.p_value is not None:
        values.append(f"p = {c.p_value:.3g}, Holm p = {c.p_holm:.3g}")
    elif c.measured is not None and c.tolerance is not None:
        values.append(
            f"{c.measured:.6g} vs {c.expected:.6g} ± {c.tolerance:.6g}"
        )
    values.append(c.detail)
    return f"- `{c.check_id}` {PASS if c.passed else FAIL}: " + "; ".join(values)


# --------------------------------------------------------------------------
# Sections: each returns its ### heading's facts, its columns and its rows
# --------------------------------------------------------------------------

_PAIR = ("paper random", "measured random", "paper double", "measured double")


def _loads(run: _Run):
    """Tables 1, 3, 6 and 7: the fraction of bins at each load, beside
    the fluid limit where the table has one."""
    p, t = run.params, run.table
    log2_n = p["n"].bit_length() - 1
    prefix = {
        "table1": f"table1/d{p['d']}", "table3": f"table3/n{log2_n}/d{p['d']}",
        "table6": f"table6/d{p['d']}", "table7": f"table7/n{log2_n}",
    }[t]
    size = (f"{_pow2(p['n_balls'])} balls into {_pow2(p['n'])} bins"
            if t == "table6" else f"n = {_pow2(p['n'])}")
    rows = [
        (load,
         *run.pair(f"{prefix}/random/load{load}", fmt_fraction(rand)),
         *run.pair(f"{prefix}/double/load{load}", fmt_fraction(dbl)),
         *(run.cell(fmt_fraction(f), f"fluid:{t}/{run.variant}:load{load}")
           for f in fluid))
        for load, rand, dbl, *fluid in run.judged.rows
    ]
    columns = ("Load", *_PAIR, *(("fluid limit",) if run.judged.fluid else ()))
    return [f"d = {p['d']}", size, f"{p['trials']} trials"], columns, rows


def _table2(run: _Run):
    p = run.params
    rows = [
        (f">= {load}", _paper(f"table2/fluid/tail{load}"),
         run.cell(fmt_fraction(fluid), f"fluid:table2/{run.variant}:tail{load}"),
         *run.pair(f"table2/random/tail{load}", fmt_fraction(rand)),
         *run.pair(f"table2/double/tail{load}", fmt_fraction(dbl)))
        for load, fluid, rand, dbl in run.judged.rows
    ]
    return ([f"d = {p['d']}", f"n = {_pow2(p['n'])}", f"{p['trials']} trials"],
            ("Tail load", "paper fluid", "measured fluid", *_PAIR), rows)


def _table4(run: _Run):
    p = run.params
    rows = [  # ``results`` is keyed by log2(n), in row order
        (label,
         *run.pair(f"table4/d{p['d']}/random/n{k}", f"{rand:.2f}", str),
         *run.pair(f"table4/d{p['d']}/double/n{k}", f"{dbl:.2f}", str))
        for (label, rand, dbl), k in zip(run.judged.rows, run.judged.results)
    ]
    return [f"d = {p['d']}", f"{p['trials']} trials per n"], ("n", *_PAIR), rows


def _table5(run: _Run):
    p = run.params
    rows = []
    for scheme, load, mn, avg, mx, std in run.judged.rows:
        anchor_id = f"table5/{scheme}/load{load}/avg"
        check = run.check(anchor_id)
        rows.append((
            scheme, load, mn, f"{avg:.2f}", mx, f"{std:.2f}",
            run.cell("-" if check is None else f"{check.measured:.5f}",
                     anchor_id),
            _paper(anchor_id, lambda v: f"{v / TABLE5_PAPER_N:.5f}"),
        ))
    return ([f"d = {p['d']}", f"n = {_pow2(p['n'])}", f"{p['trials']} trials"],
            ("Scheme", "Load", "min", "avg", "max", "std", "avg/n",
             "paper avg/n"), rows)


def _table8(run: _Run):
    meta = run.judged.meta
    rows = [
        (lam, d,
         *run.pair(f"table8/lam{lam}/d{d}/random", f"{rand:.5f}", str),
         *run.pair(f"table8/lam{lam}/d{d}/double", f"{dbl:.5f}", str),
         f"{fluid:.5f}")
        for lam, d, rand, dbl, fluid in run.judged.rows
    ]
    return ([f"n = {_pow2(meta['n'])} queues",
             f"one run per cell of {meta['sim_time']:g} s with"
             f" {meta['burn_in']:g} s of burn-in"],
            ("lambda", "d", *_PAIR, "fluid eq."), rows)


def _peeling(run: _Run):
    from repro.peeling import core_edge_fraction

    e = run.judged
    rows = [
        (f"{c:.2f}", f"{sr:.2f}", f"{sd:.2f}", f"{cr:.4f}", f"{cd:.4f}",
         f"{core_edge_fraction(float(c), e.d):.4f}")
        for c, sr, sd, cr, cd in zip(
            e.densities, e.success_random, e.success_double,
            e.core_fraction_random, e.core_fraction_double,
        )
    ]
    return ([f"d = {e.d}", f"n = {_pow2(e.n_vertices)} vertices",
             f"{run.params['trials']} hypergraphs per density and scheme"],
            ("density", "P(complete) random", "P(complete) double",
             "core frac random", "core frac double", "DE core"), rows)


def _schemes(run: _Run):
    """The hash-family zoo.  Guarantee and citation columns render from
    :data:`repro.hashing.registry.SCHEME_INFO`, which the drift check
    compares the committed document against."""
    from repro.hashing.registry import SCHEME_INFO

    p, v = run.params, run.variant
    rows = []
    for name, pv, mean_max, base_max in run.judged.rows:
        chi2 = f"equivalence:schemes/{v}/{name}:chi2"
        info = SCHEME_INFO[name]
        rows.append((
            name, info.guarantee, info.citation, run.cell(f"{pv:.3f}", chi2),
            f"{run.check(chi2).p_holm:.3f}",
            run.cell(f"{mean_max:.2f}", f"bootstrap:schemes/{v}-{name}:max-load"),
            f"{base_max:.2f}",
        ))
    return ([f"d = {p['d']}", f"n = {_pow2(p['n'])}", f"{p['trials']} trials"],
            ("Scheme", "guarantee", "citation", "chi2 p vs random", "Holm p",
             "mean max load", "random mean max"), rows)


#: Each certifier's section heading and renderer.
_SECTIONS = {
    "table1": ("Table 1 — load fractions, n balls into n bins", _loads),
    "table2": ("Table 2 — fluid limit vs simulation, tail fractions", _table2),
    "table3": ("Table 3 — load fractions at larger n", _loads),
    "table4": ("Table 4 — % of trials with maximum load 3", _table4),
    "table5": ("Table 5 — per-load count statistics", _table5),
    "table6": ("Table 6 — heavily loaded bins", _loads),
    "table7": ("Table 7 — Vöcking's d-left scheme", _loads),
    "table8": ("Table 8 — supermarket model, mean time in system", _table8),
    "peeling": ("Peeling — the 2-core threshold of the follow-up paper [30]",
                _peeling),
    "schemes": ("Hash-family zoo — each keyed family vs fully random",
                _schemes),
}

#: A sentence above the table, for the sections that need one.
_NOTES = {
    "table5": f"The paper's counts are at n = {_pow2(TABLE5_PAPER_N)};"
              " the anchors compare avg/n.",
    "peeling": "Core fractions are the fluid-limit observable; double"
               " hashing's complete-recovery probability sits lower because"
               " duplicate hyperedges (the paper's footnote 1) leave cores"
               " of size O(1).",
}


def _runs_table(cert) -> list[str]:
    """Each run's recorded parameters, without ``workers`` and
    ``backend`` (which cannot change a number).  Table 4 records its
    sizes as ``log2_n_values``, and Table 8 its ``d_values`` and no
    trial count (it runs once per cell)."""
    columns = ("table", "variant", "n", "d", "trials", "seed",
               "other parameters")
    lines = [_row(*columns), _row(*("---" for _ in columns))]
    for r in cert.runs:
        p = dict(r.params)
        n = (", ".join(f"2^{k}" for k in p.pop("log2_n_values"))
             if "log2_n_values" in p else _pow2(p.pop("n")))
        d = (", ".join(map(str, p.pop("d_values")))
             if "d_values" in p else p.pop("d"))
        trials, seed = p.pop("trials", "-"), p.pop("seed")
        other = "; ".join(
            f"{k} = {_value(v)}" for k, v in p.items()
            if k not in ("n_balls", "backend", "workers")
        )
        lines.append(_row(r.table, r.variant, n, d, trials, seed, other or "-"))
    return lines


def _value(v) -> str:
    if isinstance(v, (list, tuple)):
        return ", ".join(map(str, v))
    return f"{v:g}" if isinstance(v, float) else str(v)


def render_experiments_md(cert) -> str:
    """Print EXPERIMENTS.md from one certification's runs and checks."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"The report of one run of the `{cert.tier}` certification tier"
        f" ({cert.description}), printed by `python -m repro certify"
        f" --tier {cert.tier} --emit-experiments-md`.  Paper columns come"
        " from the anchor registry (`repro.certify.anchors`).  Each"
        " measured cell is the value its certifier judged, and the mark"
        f" beside it is the verdict of that cell's check ({PASS} pass,"
        f" {FAIL} fail); the lines under a table are the run's other"
        " checks.  How each check is built:"
        " [docs/certification.md](docs/certification.md).",
        "",
        "Seeds: the paper tables run fully random at the run's seed s and"
        " double hashing at s + 1, and Tables 4 and 8 at s + 2k and"
        " s + 2k + 1 for their k-th point; the zoo runs its baseline at s"
        " and its k-th family at s + 1 + k; the peeling sweep draws both"
        " schemes' hypergraphs from one stream seeded s.  Every run's"
        " parameters are listed under Runs, and the paper's own scale is"
        " in [DESIGN.md](DESIGN.md) §4.",
    ]
    last = None
    for record in cert.runs:
        heading, section = _SECTIONS[record.table]
        if record.table != last:
            lines += ["", f"## {heading}"]
            last = record.table
        run = _Run(cert, record)
        facts, columns, rows = section(run)
        facts.append(f"seed {record.params['seed']}")
        lines += ["", "### " + ", ".join(facts), ""]
        if record.table in _NOTES:
            lines += [_NOTES[record.table], ""]
        lines += [_row(*columns), _row(*("---" for _ in columns))]
        lines += [_row(*row) for row in rows]
        if checks := run.lines():
            lines += ["", *checks]
    failed = [c.check_id for c in cert.checks if not c.passed]
    lines += [
        "", "## Runs", "", *_runs_table(cert), "",
        f"**Verdict: {'FAIL' if failed else 'PASS'}.**"
        f" {len(cert.checks) - len(failed)} of {len(cert.checks)} checks"
        f" pass (tier `{cert.tier}`, backend `{cert.backend}`).",
    ]
    if failed:
        lines += ["", "Failing: " + ", ".join(f"`{i}`" for i in failed) + "."]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Drift check
# --------------------------------------------------------------------------


def _rows(text: str):
    """Each markdown table row as ``(## heading, facts of its ### heading,
    {column: cell})``; a ### heading's facts are its comma-separated parts."""
    section, facts, header = "", frozenset(), None
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("## "):
            section, facts = line[3:], frozenset()
        elif line.startswith("### "):
            facts = frozenset(line[4:].split(", "))
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = cells
        elif set("".join(cells)) - {"-", ":"}:  # not the separator row
            yield section, facts, dict(zip(header, cells))


def _expectations() -> list[tuple[str, frozenset, dict, dict]]:
    """Every registry cell the document can print, as ``(section prefix,
    facts its ### heading must state, row selector, {column: text})``."""
    paper = paper_values()
    exp: list[tuple[str, frozenset, dict, dict]] = []

    def add(section, facts, selector, column, text):
        exp.append((section, frozenset(facts), selector, {column: text}))

    for (d, role), cells in paper["table1"].items():
        for load, value in cells.items():
            add("Table 1", {f"d = {d}"}, {"Load": str(load)},
                f"paper {role}", fmt_fraction(value))
    for (log2_n, d, role), cells in paper["table3"].items():
        for load, value in cells.items():
            add("Table 3", {f"d = {d}", f"n = 2^{log2_n}"},
                {"Load": str(load)}, f"paper {role}", fmt_fraction(value))
    for role, cells in paper["table2"].items():
        for load, value in cells.items():
            add("Table 2", (), {"Tail load": f">= {load}"},
                f"paper {role}", fmt_fraction(value))
    for (d, role), cells in paper["table4"].items():
        for log2_n, value in cells.items():
            add("Table 4", {f"d = {d}"}, {"n": f"2^{log2_n}"},
                f"paper {role}", str(value))
    for role, cells in paper["table5"].items():
        for load, stats in cells.items():
            add("Table 5", (), {"Scheme": role, "Load": str(load)},
                "paper avg/n", f"{stats['avg'] / TABLE5_PAPER_N:.5f}")
    for (d, role), cells in paper["table6"].items():
        for load, value in cells.items():
            add("Table 6", {f"d = {d}"}, {"Load": str(load)},
                f"paper {role}", fmt_fraction(value))
    for (log2_n, role), cells in paper["table7"].items():
        for load, value in cells.items():
            add("Table 7", {f"n = 2^{log2_n}"}, {"Load": str(load)},
                f"paper {role}", fmt_fraction(value))
    for (lam, d, role), value in paper["table8"].items():
        add("Table 8", (), {"lambda": str(lam), "d": str(d)},
            f"paper {role}", str(value))
    # Hash-family zoo: the theory columns must match the scheme registry
    # (repro.hashing is import-light, so the drift check stays cheap).
    from repro.hashing.registry import SCHEME_INFO

    for name, info in SCHEME_INFO.items():
        exp.append(("Hash-family zoo", frozenset(), {"Scheme": name},
                    {"guarantee": info.guarantee, "citation": info.citation}))
    return exp


def check_experiments_md_drift(path: str | Path = "EXPERIMENTS.md") -> list[str]:
    """Compare a committed EXPERIMENTS.md against the anchor registry.

    Returns a list of human-readable problems (empty when in sync).
    Every paper cell the document prints must equal the registry's value
    (a cell the document's runs do not reach is not printed, and is not
    checked).  Measured columns legitimately change when the document is
    regenerated, so no experiment runs here.
    """
    path = Path(path)
    if not path.exists():
        return [f"{path} does not exist"]
    rows = list(_rows(path.read_text()))
    problems: list[str] = []
    found = 0
    for section, facts, selector, expected in _expectations():
        row = next((
            row for sec, fs, row in rows
            if sec.startswith(section) and facts <= fs
            and all(row.get(col) == val for col, val in selector.items())
        ), None)
        if row is None:
            continue
        found += 1
        where = f"{section}/{', '.join(sorted(facts)) or '-'} {selector}"
        problems += [
            f"{where}: column {col!r} is {row.get(col)!r}, registry says {val!r}"
            for col, val in expected.items() if row.get(col) != val
        ]
    if not found:
        problems.append(f"{path} prints no paper cell")
    return problems
