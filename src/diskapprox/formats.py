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

from .errors import BadParameter, IdOutOfRange, NonPositiveRadius, ParseError, SelfLoop
from .geometry import GeometricInstance, _disk_fault
from .graphs import Graph, build_graph

FORMAT_VERSION = 1


def render_instance(instance: GeometricInstance | Graph) -> str:
    if isinstance(instance, GeometricInstance):
        lines = [f"udg {FORMAT_VERSION} geometric"]
        for i, (x, y, r) in enumerate(instance.disks):
            lines.append(f"disk {i} {x:.17g} {y:.17g} {r:.17g}")
    else:
        lines = [f"udg {FORMAT_VERSION} abstract", f"n {instance.n}"]
        for u, v in instance.edges:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> GeometricInstance | Graph:
    """A geometric file as a :class:`GeometricInstance`, an abstract one as a :class:`Graph`.

    A character outside ASCII is a parse error naming its line, as in
    :func:`read_instance`: ``int`` and ``float`` would read other scripts'
    digits, and ``split`` would split at a no-break space.
    """
    if not text.isascii():
        index = next(i for i, ch in enumerate(text) if not ch.isascii())
        line_no = len((text[:index] + "x").splitlines())
        raise ParseError(line_no, f"non-ASCII character U+{ord(text[index]):04X}")
    lines = text.splitlines()
    for header_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens:
            break
    else:
        raise ParseError(1, "missing header")
    if tokens[0] != "udg" or len(tokens) != 3:
        raise ParseError(header_no, "expected header 'udg <version> <mode>'")
    try:
        version = int(tokens[1])
    except ValueError:
        raise ParseError(header_no, f"bad version {tokens[1]!r}") from None
    if version != FORMAT_VERSION:
        raise ParseError(header_no, f"format version {version} unsupported")
    mode = tokens[2]
    if mode == "geometric":
        return _parse_disks(lines, header_no)
    if mode == "abstract":
        return _parse_graph(lines, header_no)
    raise ParseError(header_no, f"unknown mode {mode!r}")


def _parse_disks(lines: list[str], header_no: int) -> GeometricInstance:
    """The disks on the lines after the header, each range-checked once.

    One loop converts every line; any fault in it, a duplicate or missing
    id, or a disk out of range sends the lines to :func:`_disk_error`,
    which scans them again only to name the first bad line.
    """
    by_id: dict[int, tuple[float, float, float]] = {}
    count = 0
    try:
        for raw in lines[header_no:]:
            tokens = raw.split()
            if tokens:
                keyword, disk_id, x, y, r = tokens
                if keyword != "disk":
                    raise ValueError(keyword)
                by_id[int(disk_id)] = (float(x), float(y), float(r))
                count += 1
        # ``count`` lines hold the ids 0..count-1 exactly when each is present
        instance = GeometricInstance(tuple(map(by_id.__getitem__, range(count))))
        # range-check the disks here, where a fault can still name its line;
        # instance_to_graph reads the flag this caches
        instance.unit
    except (ValueError, KeyError, BadParameter, NonPositiveRadius):
        raise _disk_error(lines, header_no) from None
    return instance


def _disk_error(lines: list[str], header_no: int) -> ParseError:
    """The first fault of the disk lines after the header, named by its line."""
    seen: set[int] = set()
    for line_no, raw in enumerate(lines[header_no:], start=header_no + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] != "disk" or len(tokens) != 5:
            return ParseError(line_no, "expected 'disk <id> <x> <y> <r>'")
        try:
            disk_id = int(tokens[1])
            x, y, r = float(tokens[2]), float(tokens[3]), float(tokens[4])
        except ValueError:
            return ParseError(line_no, "bad disk fields")
        fault = _disk_fault(x, y, r)
        if fault:
            return ParseError(line_no, fault)
        if disk_id in seen:
            return ParseError(line_no, f"duplicate disk id {disk_id}")
        seen.add(disk_id)
    return ParseError(len(lines), "disk ids must be exactly 0..n-1")


def _parse_graph(lines: list[str], header_no: int) -> Graph:
    """The graph on the lines after the header: a vertex count, then edges.

    The edge lines stream into :func:`build_graph`, which checks each edge
    as it is read, so no edge list is kept; an endpoint out of range or a
    self-loop it finds is raised again naming the line being read.
    """
    numbered = enumerate(lines[header_no:], start=header_no + 1)
    for line_no, raw in numbered:
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "n" and len(tokens) == 2:
            try:
                count = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {tokens[1]!r}") from None
            if count < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
            break
        if tokens[0] == "edge" and len(tokens) == 3:
            raise ParseError(line_no, "edge before vertex count")
        raise ParseError(line_no, f"unexpected line {raw!r}")
    else:
        raise ParseError(len(lines), "missing vertex count")

    def edges():
        nonlocal line_no
        for line_no, raw in numbered:
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "edge" and len(tokens) == 3:
                try:
                    edge = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise ParseError(line_no, "bad edge endpoints") from None
                yield edge
            elif tokens[0] == "n" and len(tokens) == 2:
                raise ParseError(line_no, "duplicate vertex count")
            else:
                raise ParseError(line_no, f"unexpected line {raw!r}")

    try:
        return build_graph(count, edges())
    except (IdOutOfRange, SelfLoop) as exc:
        raise ParseError(line_no, str(exc)) from None


def write_instance(instance: GeometricInstance | Graph, path) -> None:
    """Write ``instance`` to ``path``: geometric mode for disks, abstract mode for a graph."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(render_instance(instance))


def read_instance(path) -> GeometricInstance | Graph:
    """The instance file at ``path``; a byte outside ASCII is a parse error naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # number the line as parse_instance would: the lines of the text before the byte
        line_no = len((data[:exc.start] + b"x").decode("ascii").splitlines())
        raise ParseError(line_no, f"non-ASCII byte 0x{data[exc.start]:02x}") from None
    return parse_instance(text)


def solution_document(problem: str, value: int, *, vertices=None, colors=None, meta=None) -> dict:
    """Canonical solution payload: {problem, value, vertices | colors, meta}."""
    doc: dict = {"problem": problem, "value": value, "meta": meta or {}}
    if vertices is not None:
        doc["vertices"] = sorted(vertices)
    if colors is not None:
        doc["colors"] = list(colors)
    return doc


def solution_to_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte, for a
    document with string keys, without running json's pure-Python indent encoder."""
    return _render(doc, "\n") + "\n"


def _render(value, newline: str) -> str:
    """``value`` nested as json.dumps(indent=2) nests it after ``newline``, a
    line break and the enclosing indent.

    A list of plain ints goes through ``list.__repr__``, whose ", " between
    items becomes a line break; containers recurse; keys, scalars and empty
    containers go through json.dumps.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        return "{" + ",".join(
            f"{inner}{json.dumps(key)}: {_render(item, inner)}"
            for key, item in sorted(value.items())
        ) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        # exact types: json writes a bool as true, and repr writes True
        if type(value) is list and set(map(type, value)) == {int}:
            return "[" + inner + repr(value)[1:-1].replace(", ", "," + inner) + newline + "]"
        return "[" + ",".join(inner + _render(item, inner) for item in value) + newline + "]"
    return json.dumps(value)


def parse_solution(text: str) -> dict:
    """Solution document with a string problem, an integer value, and integer lists."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise BadParameter("solution document nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise BadParameter(f"solution document is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "problem" not in doc or "value" not in doc:
        raise BadParameter("solution document needs 'problem' and 'value'")
    if not isinstance(doc["problem"], str):
        raise BadParameter("solution 'problem' must be a string")
    # json.loads makes no subclass of int but bool, so the exact type tells
    # an integer from a bool, for the value and for every list element
    if type(doc["value"]) is not int:
        raise BadParameter("solution 'value' must be an integer")
    for field in ("vertices", "colors"):
        if field in doc and not (
            isinstance(doc[field], list) and set(map(type, doc[field])) <= {int}
        ):
            raise BadParameter(f"solution {field!r} must be a list of integers")
    return doc


def read_solution(path) -> dict:
    """The solution document at ``path``, by :func:`parse_solution`; a byte
    that is not UTF-8 is an error naming the byte and its offset."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadParameter(
            f"solution document is not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    return parse_solution(text)
