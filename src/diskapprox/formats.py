"""Plain-text instance files and JSON solution documents.

Instance format, line oriented:

    udg <version> <mode>        header; version 1; mode geometric | abstract
    disk <id> <x> <y> <r>       one per disk          (geometric mode)
    n <count>                   vertex count          (abstract mode)
    edge <u> <v>                one per edge          (abstract mode)

Coordinates are written with 17 significant digits so binary64 values
round-trip exactly.  Geometric files never store edges; the graph is
always re-derived from the disks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import BadParameter, ParseError, VersionMismatch
from .geometry import GeometricInstance, _disk_fault, instance_to_graph
from .graphs import Graph, build_graph

FORMAT_VERSION = 1
MODES = ("geometric", "abstract")


def _fmt(value: float) -> str:
    return format(value, ".17g")


@dataclass(frozen=True)
class InstanceFile:
    """Parsed instance document in either mode."""

    format_version: int
    mode: str
    disks: Optional[tuple[tuple[float, float, float], ...]] = None
    n: Optional[int] = None
    edges: Optional[tuple[tuple[int, int], ...]] = None

    @staticmethod
    def from_instance(inst: GeometricInstance) -> "InstanceFile":
        return InstanceFile(FORMAT_VERSION, "geometric", disks=inst.disks)

    @staticmethod
    def from_graph(G: Graph) -> "InstanceFile":
        return InstanceFile(FORMAT_VERSION, "abstract", n=G.n, edges=G.edges)

    def to_geometric_instance(self) -> GeometricInstance:
        if self.mode != "geometric":
            raise BadParameter("not a geometric instance")
        return GeometricInstance(self.disks)

    def to_graph(self) -> Graph:
        if self.mode == "geometric":
            return instance_to_graph(self.to_geometric_instance())
        return build_graph(self.n, self.edges)


def render_instance(doc: InstanceFile) -> str:
    lines = [f"udg {doc.format_version} {doc.mode}"]
    if doc.mode == "geometric":
        for i, (x, y, r) in enumerate(doc.disks):
            lines.append(f"disk {i} {_fmt(x)} {_fmt(y)} {_fmt(r)}")
    else:
        lines.append(f"n {doc.n}")
        for u, v in doc.edges:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceFile:
    lines = text.splitlines()
    header_seen = False
    mode = ""
    version = 0
    disks: dict[int, tuple[float, float, float]] = {}
    count: Optional[int] = None
    edges: list[tuple[int, int]] = []
    last_line = 0

    for line_no, raw in enumerate(lines, start=1):
        last_line = line_no
        tokens = raw.split()
        if not tokens:
            continue
        if not header_seen:
            if tokens[0] != "udg" or len(tokens) != 3:
                raise ParseError(line_no, "expected header 'udg <version> <mode>'")
            try:
                version = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad version {tokens[1]!r}") from None
            if version != FORMAT_VERSION:
                raise VersionMismatch(f"format version {version} unsupported")
            mode = tokens[2]
            if mode not in MODES:
                raise ParseError(line_no, f"unknown mode {mode!r}")
            header_seen = True
            continue
        keyword = tokens[0]
        if mode == "geometric":
            if keyword != "disk" or len(tokens) != 5:
                raise ParseError(line_no, "expected 'disk <id> <x> <y> <r>'")
            try:
                disk_id = int(tokens[1])
                x, y, r = float(tokens[2]), float(tokens[3]), float(tokens[4])
            except ValueError:
                raise ParseError(line_no, "bad disk fields") from None
            fault = _disk_fault(x, y, r)
            if fault:
                raise ParseError(line_no, fault)
            if disk_id in disks:
                raise ParseError(line_no, f"duplicate disk id {disk_id}")
            disks[disk_id] = (x, y, r)
        else:
            if keyword == "n" and len(tokens) == 2:
                if count is not None:
                    raise ParseError(line_no, "duplicate vertex count")
                try:
                    count = int(tokens[1])
                except ValueError:
                    raise ParseError(line_no, f"bad vertex count {tokens[1]!r}") from None
            elif keyword == "edge" and len(tokens) == 3:
                if count is None:
                    raise ParseError(line_no, "edge before vertex count")
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise ParseError(line_no, "bad edge endpoints") from None
                edges.append((u, v))
            else:
                raise ParseError(line_no, f"unexpected line {raw!r}")

    if not header_seen:
        raise ParseError(1, "missing header")
    if mode == "geometric":
        if sorted(disks) != list(range(len(disks))):
            raise ParseError(last_line, "disk ids must be exactly 0..n-1")
        ordered = tuple(disks[i] for i in range(len(disks)))
        return InstanceFile(version, mode, disks=ordered)
    if count is None:
        raise ParseError(last_line, "missing vertex count")
    return InstanceFile(version, mode, n=count, edges=tuple(edges))


def write_instance(doc, path) -> None:
    """Write an InstanceFile (or a GeometricInstance, coerced) to ``path``."""
    if isinstance(doc, GeometricInstance):
        doc = InstanceFile.from_instance(doc)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(render_instance(doc))


def read_instance(path) -> InstanceFile:
    with open(path, "r", encoding="ascii") as handle:
        return parse_instance(handle.read())


def solution_document(problem: str, value: int, *, vertices=None, colors=None, meta=None) -> dict:
    """Canonical solution payload: {problem, value, vertices | colors, meta}."""
    doc: dict = {"problem": problem, "value": value, "meta": meta or {}}
    if vertices is not None:
        doc["vertices"] = sorted(vertices)
    if colors is not None:
        doc["colors"] = list(colors)
    return doc


def solution_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_solution(text: str) -> dict:
    """Solution document with a string problem, an integer value, and integer lists."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise BadParameter("solution document nests too deeply") from None
    if not isinstance(doc, dict) or "problem" not in doc or "value" not in doc:
        raise BadParameter("solution document needs 'problem' and 'value'")
    if not isinstance(doc["problem"], str):
        raise BadParameter("solution 'problem' must be a string")
    if not _is_int(doc["value"]):
        raise BadParameter("solution 'value' must be an integer")
    for field in ("vertices", "colors"):
        if field in doc and not (
            isinstance(doc[field], list) and all(map(_is_int, doc[field]))
        ):
            raise BadParameter(f"solution {field!r} must be a list of integers")
    return doc
