"""Dataflow verification of generated kernel schedules.

The paper's codegen results (Alg. 3 binary-reduce, Table II) assume the
generated 234-input/24-output BSSN schedules are correct by
construction.  This module checks that assumption statically: a
:class:`~repro.codegen.regalloc.Statement` stream is a straight-line
single-assignment program, so full dataflow verification is exact —
no approximation is involved.

Checks (each producing a :class:`Finding` with the statement index):

* ``use-before-def``     — an operand that is neither a kernel input nor
  the target of an earlier statement;
* ``unknown-symbol``     — an identifier in the ``src`` text that is not
  an operand, an input, or a numeric literal (the symbol-table check the
  CUDA emitter relies on);
* ``operand-mismatch``   — the declared ``inputs`` tuple disagrees with
  the identifiers actually referenced by ``src``;
* ``double-write``       — a target assigned more than once;
* ``input-overwrite``    — a target shadowing a kernel input (would be a
  redeclaration in the emitted CUDA);
* ``dead-store``         — a write overwritten before any read;
* ``unused-temp``        — a non-output value that is never read;
* ``missing-output`` / ``duplicate-output`` / ``malformed-output`` —
  the 24 RHS outputs must each be written exactly once;
* ``live-range-mismatch`` / ``spill-at-capacity`` — an independent
  live-range re-derivation cross-checked against
  :func:`repro.codegen.regalloc.analyze_schedule` /
  :func:`~repro.codegen.regalloc.max_live_values`.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from repro.codegen.regalloc import (
    Statement,
    analyze_schedule,
    is_register_input,
    max_live_values,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
#: numeric literal (incl. exponent form) — stripped before the identifier
#: scan so the 'e' of '1e-05' is not mistaken for a symbol
_NUM_LIT = re.compile(r"(?<![\w.])\d+\.?\d*(?:[eE][-+]?\d+)?")


def _identifiers(src: str) -> list[str]:
    """Identifier tokens of a generated expression string."""
    return _IDENT.findall(_NUM_LIT.sub(" ", src))


@dataclass(frozen=True)
class Finding:
    """One verifier/lint/audit finding."""

    kind: str
    severity: str
    message: str
    location: str
    statement: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "statement": self.statement,
        }


@dataclass
class DataflowReport:
    """Verification result for one schedule."""

    label: str
    num_statements: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: independent live peak under the schedule's input-def policy
    max_live: int = 0
    #: independent live peak with every input materialised on demand
    max_live_ondemand: int = 0
    verify_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_statements": self.num_statements,
            "max_live": self.max_live,
            "max_live_ondemand": self.max_live_ondemand,
            "verify_time": self.verify_time,
            "findings": [f.to_dict() for f in self.findings],
        }


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def live_intervals(
    statements: list[Statement],
    input_names: set[str],
    *,
    input_defs: str = "upfront",
) -> dict[str, tuple[int, int]]:
    """Closed live interval ``[start, end]`` (statement indices) of every
    value in the schedule.

    Targets live from their defining statement to their last use (an
    unread target occupies its slot only at its own statement, matching
    the allocator's end-of-statement cleanup).  Inputs live from their
    first use — except register-resident derivative inputs under the
    ``upfront`` policy, which materialise before statement 0 (Fig. 9's
    fused-kernel structure).
    """
    first_use: dict[str, int] = {}
    last_use: dict[str, int] = {}
    for i, st in enumerate(statements):
        for name in st.inputs:
            first_use.setdefault(name, i)
            last_use[name] = i
    intervals: dict[str, tuple[int, int]] = {}
    for i, st in enumerate(statements):
        if st.target not in intervals:
            intervals[st.target] = (i, max(i, last_use.get(st.target, i)))
    for name, fu in first_use.items():
        if name in intervals or name not in input_names:
            continue
        start = 0 if (input_defs == "upfront" and is_register_input(name)) else fu
        intervals[name] = (start, last_use[name])
    return intervals


def peak_live(intervals: dict[str, tuple[int, int]], n: int) -> int:
    """Peak number of simultaneously live values, by difference-array
    sweep over the ``n``-statement index range (independent of the
    event-sort accounting in :mod:`repro.codegen.regalloc`)."""
    if not intervals:
        return 0
    delta = [0] * (n + 2)
    for start, end in intervals.values():
        delta[start] += 1
        delta[end + 1] -= 1
    peak = live = 0
    for d in delta:
        live += d
        peak = max(peak, live)
    return peak


def verify_schedule(
    statements: list[Statement],
    input_names: set[str],
    *,
    num_outputs: int = 24,
    label: str = "<schedule>",
    input_defs: str = "upfront",
    cross_check: bool = True,
) -> DataflowReport:
    """Full dataflow verification of one statement schedule."""
    t0 = time.perf_counter()
    report = DataflowReport(label=label, num_statements=len(statements))

    def add(kind: str, severity: str, message: str, i: int | None) -> None:
        loc = f"{label}" if i is None else f"{label}@stmt[{i}]"
        report.findings.append(Finding(kind, severity, message, loc, i))

    # -- forward pass: definitions, reads, src consistency ---------------
    defined_at: dict[str, int] = {}
    for i, st in enumerate(statements):
        for name in st.inputs:
            if name not in input_names and name not in defined_at:
                add(
                    "use-before-def",
                    SEVERITY_ERROR,
                    f"'{st.target}' reads '{name}' which is neither a kernel "
                    "input nor defined by an earlier statement",
                    i,
                )
        src_refs = {tok for tok in _identifiers(st.src) if not _is_number(tok)}
        declared = set(st.inputs)
        for tok in sorted(src_refs - declared):
            if tok in input_names or tok in defined_at or tok == st.target:
                add(
                    "operand-mismatch",
                    SEVERITY_ERROR,
                    f"'{st.target}' src references '{tok}' missing from its "
                    "inputs tuple",
                    i,
                )
            else:
                add(
                    "unknown-symbol",
                    SEVERITY_ERROR,
                    f"'{st.target}' src references undeclared symbol '{tok}'",
                    i,
                )
        for tok in sorted(declared - src_refs):
            add(
                "operand-mismatch",
                SEVERITY_ERROR,
                f"'{st.target}' declares input '{tok}' not referenced by its src",
                i,
            )
        if st.target in input_names:
            add(
                "input-overwrite",
                SEVERITY_ERROR,
                f"'{st.target}' overwrites a kernel input",
                i,
            )
        if st.target in defined_at:
            add(
                "double-write",
                SEVERITY_ERROR,
                f"'{st.target}' already written at stmt[{defined_at[st.target]}]",
                i,
            )
        else:
            defined_at[st.target] = i
        if st.is_output and st.output_var is None:
            add(
                "malformed-output",
                SEVERITY_ERROR,
                f"output statement '{st.target}' has no output_var",
                i,
            )

    # -- reads: dead stores and unused temporaries ------------------------
    read_at: dict[str, list[int]] = {}
    writes: dict[str, list[int]] = {}
    for i, st in enumerate(statements):
        for name in st.inputs:
            read_at.setdefault(name, []).append(i)
        writes.setdefault(st.target, []).append(i)
    for name, ws in writes.items():
        reads = read_at.get(name, [])
        for wi, wj in zip(ws, ws[1:]):
            if not any(wi < r <= wj for r in reads):
                add(
                    "dead-store",
                    SEVERITY_WARNING,
                    f"write to '{name}' at stmt[{wi}] is overwritten at "
                    f"stmt[{wj}] before any read",
                    wi,
                )
    for i, st in enumerate(statements):
        if not st.is_output and st.target not in read_at:
            if writes[st.target][0] != i:
                continue  # report once per name
            add(
                "unused-temp",
                SEVERITY_WARNING,
                f"temporary '{st.target}' is never read",
                i,
            )

    # -- output completeness ----------------------------------------------
    out_vars: dict[int, int] = {}
    for i, st in enumerate(statements):
        if not st.is_output or st.output_var is None:
            continue
        if st.output_var in out_vars:
            add(
                "duplicate-output",
                SEVERITY_ERROR,
                f"output var {st.output_var} written at stmt[{out_vars[st.output_var]}] "
                f"and again at stmt[{i}]",
                i,
            )
        else:
            out_vars[st.output_var] = i
        if not 0 <= st.output_var < num_outputs:
            add(
                "malformed-output",
                SEVERITY_ERROR,
                f"output var {st.output_var} out of range 0..{num_outputs - 1}",
                i,
            )
    missing = sorted(set(range(num_outputs)) - set(out_vars))
    if missing:
        add(
            "missing-output",
            SEVERITY_ERROR,
            f"outputs never written: {missing}",
            None,
        )

    # -- independent live-range derivation + regalloc cross-check ---------
    n = len(statements)
    report.max_live = peak_live(
        live_intervals(statements, input_names, input_defs=input_defs), n
    )
    report.max_live_ondemand = peak_live(
        live_intervals(statements, input_names, input_defs="on-demand"), n
    )
    if cross_check and not report.errors:
        mlv = max_live_values(statements, input_names)
        if mlv != report.max_live_ondemand:
            add(
                "live-range-mismatch",
                SEVERITY_ERROR,
                f"independent on-demand live peak {report.max_live_ondemand} "
                f"!= regalloc.max_live_values {mlv}",
                None,
            )
        unbounded = analyze_schedule(
            statements, input_names, budget=n + len(input_names) + 1,
            input_defs=input_defs,
        )
        if unbounded.max_live != report.max_live:
            add(
                "live-range-mismatch",
                SEVERITY_ERROR,
                f"independent {input_defs} live peak {report.max_live} != "
                f"analyze_schedule unbounded max_live {unbounded.max_live}",
                None,
            )
        at_peak = analyze_schedule(
            statements, input_names, budget=report.max_live,
            input_defs=input_defs,
        )
        if at_peak.spill_stores or at_peak.spill_loads:
            add(
                "spill-at-capacity",
                SEVERITY_ERROR,
                f"schedule spills ({at_peak.spill_stores} stores / "
                f"{at_peak.spill_loads} loads) with budget equal to its own "
                f"live peak {report.max_live}",
                None,
            )

    report.verify_time = time.perf_counter() - t0
    return report


def verify_spec(spec, *, cross_check: bool = True) -> DataflowReport:
    """Verify one :class:`repro.codegen.KernelSpec`."""
    from repro.bssn import state as S

    return verify_schedule(
        spec.statements,
        spec.input_names,
        num_outputs=S.NUM_VARS,
        label=spec.variant,
        input_defs=spec.input_defs,
        cross_check=cross_check,
    )
