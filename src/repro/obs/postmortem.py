"""Postmortem reconstruction: span trees, orphan checks, renderings.

Everything here works on the *dumped* representation (dicts from
:meth:`~repro.obs.span.Span.to_dict`), not live spans — a postmortem
runs in a different process than the crash, off a flight-recorder dump
or a spans file.

The structural invariant these tools check is the acceptance criterion
of the obs layer: every span's ``parent_id`` resolves to a span in the
same trace (**no orphans**), so each request/step reconstructs one
complete causal tree from its root.  An orphan means context was
dropped somewhere in the propagation chain — exactly the bug class
span tracing exists to prevent.
"""

from __future__ import annotations

import json
from pathlib import Path


def load_dump(path: str | Path) -> dict:
    """Load a flight-recorder dump or spans document, validating shape.

    Raises ``ValueError`` on torn/foreign JSON so the CLI can exit
    distinctly on unparseable dumps.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable dump {path}: {exc}") from exc
    if not isinstance(doc, dict) or "spans" not in doc:
        raise ValueError(f"{path} is not a spans/flight-recorder document")
    doc.setdefault("record", "spans")
    doc.setdefault("in_flight", [])
    return doc


def all_spans(doc: dict) -> list[dict]:
    """Completed + in-flight spans of a dump, as one list."""
    return list(doc.get("spans", [])) + list(doc.get("in_flight", []))


def build_trees(spans: list[dict]) -> dict[str, list[dict]]:
    """Group spans into per-trace forests.

    Returns ``{trace_id: [root, ...]}`` where each span dict gains a
    ``children`` list (ordered by span_id path, which encodes creation
    order).  Orphans — spans whose parent is absent from the same
    trace — are *excluded* from the forest; use :func:`orphan_spans` to
    find them.
    """
    by_key = {(s["trace_id"], s["span_id"]): dict(s) for s in spans}
    for node in by_key.values():
        node["children"] = []
    forests: dict[str, list[dict]] = {}
    for (trace_id, _), node in sorted(by_key.items()):
        parent_id = node.get("parent_id")
        if parent_id is None:
            forests.setdefault(trace_id, []).append(node)
        else:
            parent = by_key.get((trace_id, parent_id))
            if parent is not None:
                parent["children"].append(node)
    for roots in forests.values():
        roots.sort(key=lambda n: _path_key(n["span_id"]))
        stack = list(roots)
        while stack:
            node = stack.pop()
            node["children"].sort(key=lambda n: _path_key(n["span_id"]))
            stack.extend(node["children"])
    return forests


def orphan_spans(spans: list[dict]) -> list[dict]:
    """Spans whose ``parent_id`` does not resolve within their trace.

    The acceptance gate: a healthy run has **zero** orphans.
    """
    present = {(s["trace_id"], s["span_id"]) for s in spans}
    return [
        s
        for s in spans
        if s.get("parent_id") is not None
        and (s["trace_id"], s["parent_id"]) not in present
    ]


def _path_key(span_id: str) -> tuple:
    """Sort hierarchical ids numerically: 0.2 < 0.10."""
    return tuple(int(p) for p in span_id.split("."))


def _fmt_span(span: dict) -> str:
    start = span.get("start")
    end = span.get("end")
    if end is None:
        when = f"[{_num(start)}.. OPEN]"
    else:
        when = f"[{_num(start)}..{_num(end)}]"
    bits = [f"{span['name']} {when}"]
    counts = span.get("event_counts") or {}
    if counts:
        bits.append(
            "events=" + ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        )
    nbytes = sum((span.get("event_bytes") or {}).values())
    if nbytes:
        bits.append(f"bytes={nbytes}")
    attrs = span.get("attrs") or {}
    if attrs:
        bits.append(
            " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        )
    if span.get("error"):
        bits.append(f"ERROR: {span['error']}")
    return "  ".join(bits)


def _num(x) -> str:
    if x is None:
        return "?"
    f = float(x)
    return str(int(f)) if f.is_integer() else f"{f:g}"


def render_tree(node: dict, *, indent: int = 0, lines: list | None = None) -> list[str]:
    """Render one span tree as indented lines."""
    if lines is None:
        lines = []
    lines.append("  " * indent + _fmt_span(node))
    for child in node.get("children", []):
        render_tree(child, indent=indent + 1, lines=lines)
    return lines


def render_spans(
    doc: dict, *, trace_id: str | None = None, limit: int | None = None
) -> str:
    """Render a dump's span forests (``repro obs spans``)."""
    spans = all_spans(doc)
    if trace_id is not None:
        spans = [s for s in spans if s["trace_id"] == trace_id]
    forests = build_trees(spans)
    orphans = orphan_spans(spans)
    lines: list[str] = []
    shown = 0
    for tid in sorted(forests):
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(forests) - shown} more traces)")
            break
        lines.append(f"trace {tid}")
        for root in forests[tid]:
            for line in render_tree(root, indent=1):
                lines.append(line)
        shown += 1
    lines.append(
        f"{len(spans)} spans · {len(forests)} traces · {len(orphans)} orphans"
    )
    for orphan in orphans:
        lines.append(
            f"ORPHAN {orphan['trace_id']}/{orphan['span_id']} "
            f"({orphan['name']}): parent {orphan['parent_id']} missing"
        )
    return "\n".join(lines)


def render_postmortem(doc: dict) -> str:
    """Render a flight-recorder dump (``repro obs postmortem``): crash
    cause, in-flight span trees at the moment of death, span-tail stats, and
    the last step records."""
    lines: list[str] = []
    lines.append(f"flight recorder — reason: {doc.get('reason', '?')}")
    exc = doc.get("exception")
    if exc:
        lines.append(f"exception: {exc['type']}: {exc['message']}")
    if doc.get("tick") is not None:
        lines.append(f"logical clock at dump: {_num(doc['tick'])}")
    lines.append(
        f"tail: {len(doc.get('spans', []))} spans retained "
        f"(capacity {doc.get('capacity', '?')}, "
        f"high watermark {doc.get('high_watermark', '?')}, "
        f"dropped {doc.get('dropped_spans', 0)})"
    )
    in_flight = doc.get("in_flight", [])
    lines.append(f"in flight at crash: {len(in_flight)} spans")
    if in_flight:
        # In-flight spans form (possibly partial) trees on their own;
        # missing ancestors were never opened-and-lost, they are simply
        # already completed into the span log — show those flat.
        forests = build_trees(in_flight)
        rendered = set()
        for tid in sorted(forests):
            lines.append(f"  trace {tid}")
            for root in forests[tid]:
                for line in render_tree(root, indent=2):
                    lines.append(line)
                stack = [root]
                while stack:
                    node = stack.pop()
                    rendered.add((node["trace_id"], node["span_id"]))
                    stack.extend(node["children"])
        for span in in_flight:
            if (span["trace_id"], span["span_id"]) not in rendered:
                lines.append("  " + _fmt_span(span))
    steps = doc.get("step_records", [])
    if steps:
        lines.append(f"last {len(steps)} step records:")
        for rec in steps[-5:]:
            lines.append(
                f"  step {rec.get('step')}: loss={rec.get('loss'):.6f} "
                f"faults={rec.get('fault_count', 0)} "
                f"retries={rec.get('retry_count', 0)}"
            )
    return "\n".join(lines)
