"""Parser, printer, and structural checks for LEdit-style extraction netlists.

The dialect is a strict subset of SPICE, one card per line:

    M<id> <drain> <gate> <source> <bulk> NMOS|PMOS L=<num> W=<num> [AD= PD= AS= PS=]
    C<id> <n1> <n2> C=<num>          (bare value also accepted)
    R<id> <n1> <n2> R=<num>
    V<id> <n+> <n-> DC <num> | <num> | PULSE(v1 v2 td tr tf pw per) | PWL(t v ...)
    I<id> <n+> <n-> ...              same forms as V
    * comment                        retained verbatim
    .END                             terminator (case-insensitive); any other
                                     dot card is rejected

Node "0" is ground.  "?" is an unresolved placeholder left by the extractor;
every occurrence is a distinct node.  Card keywords are case-insensitive,
node names are case-sensitive.  Three comment shapes carry structure and are
read into fields rather than kept as comments: device bounding boxes
("* M5 DRAIN GATE SOURCE BULK (34 31 36 41.5)" attaches to the preceding
card), extractor totals ("* Total Nodes: 6"), and role annotations
("* roles: Q=3 QBAR=4").  The printer writes each from its field: the bounding
box after its card, the roles after the title, the totals before .END.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .numbers import format_spice_number, parse_spice_number
from .report import AnalysisReport

GROUND = "0"

MOS_FIELD_ORDER = ("ad", "pd", "as_", "ps")  # printed as AD PD AS PS
_MOS_KEY_TO_FIELD = {"L": "l", "W": "w", "AD": "ad", "PD": "pd", "AS": "as_", "PS": "ps"}

_BBOX_RE = re.compile(r"^\*\s*(\S+)\s+DRAIN GATE SOURCE BULK\s*\(([^)]*)\)\s*$")
_TOTAL_RE = re.compile(r"^\*\s*Total (Nodes|Elements):\s*(\d+)\s*$", re.IGNORECASE)
_ROLES_RE = re.compile(r"^\*\s*roles:\s*(.*)$", re.IGNORECASE)
_ZERO_CAP_RE = re.compile(r"zero nodal parasitic capacitance", re.IGNORECASE)


class NetlistError(Exception):
    """Base class for netlist parsing and validation failures."""


class _LineError(NetlistError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NetlistSyntaxError(_LineError):
    pass


class NetlistSemanticError(_LineError):
    pass


@dataclass(frozen=True)
class Node:
    """A circuit node; placeholders compare distinct even though all print '?'."""

    name: str
    placeholder: bool = False
    ordinal: int = 0  # disambiguates placeholder occurrences

    @property
    def is_ground(self) -> bool:
        return not self.placeholder and self.name == GROUND

    def __str__(self) -> str:
        return "?" if self.placeholder else self.name


@dataclass
class Comment:
    text: str  # verbatim line, including the leading "*"


class _Element:
    """Base of the element types.  TERMINALS names a type's node fields in
    card order; nodes, their values, is one getter made per type."""

    TERMINALS: tuple[str, ...]
    nodes: tuple[Node, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.nodes = property(attrgetter(*cls.TERMINALS))

    @property
    def degenerate(self) -> bool:
        """True when the extractor left a '?' node."""
        return any(n.placeholder for n in self.nodes)


@dataclass
class MosElement(_Element):
    TERMINALS = ("drain", "gate", "source", "bulk")

    id: str
    drain: Node
    gate: Node
    source: Node
    bulk: Node
    polarity: str  # "NMOS" | "PMOS"
    l: float
    w: float
    ad: float | None = None
    as_: float | None = None
    pd: float | None = None
    ps: float | None = None
    bbox: tuple[float, float, float, float] | None = None

    @property
    def degenerate(self) -> bool:
        """True when the extractor emitted a stub: zero geometry or '?' nodes."""
        return self.l <= 0.0 or self.w <= 0.0 or super().degenerate


@dataclass
class CapElement(_Element):
    TERMINALS = ("n1", "n2")

    id: str
    n1: Node
    n2: Node
    value: float


@dataclass
class ResElement(_Element):
    TERMINALS = ("n1", "n2")

    id: str
    n1: Node
    n2: Node
    value: float


@dataclass
class SourceElement(_Element):
    """Independent V or I source; positive current flows n+ -> n- internally."""

    TERMINALS = ("n_plus", "n_minus")

    id: str
    n_plus: Node
    n_minus: Node
    kind: str  # "DC" | "PULSE" | "PWL"
    params: tuple[float, ...]

    @property
    def is_current(self) -> bool:
        return self.id[0].upper() == "I"

    def value_at(self, t: float) -> float:
        if self.kind == "DC":
            return self.params[0]
        if self.kind == "PULSE":
            v1, v2, delay, rise, fall, width, period = self.params
            if period > 0:
                t = delay + (t - delay) % period if t >= delay else t
            if t < delay:
                return v1
            t -= delay
            if t < rise:
                return v1 + (v2 - v1) * t / rise
            t -= rise
            if t < width:
                return v2
            t -= width
            if t < fall:
                return v2 + (v1 - v2) * t / fall
            return v1
        # PWL: flat extrapolation outside the given time span
        pts = self.params
        times = pts[0::2]
        values = pts[1::2]
        if t <= times[0]:
            return values[0]
        for i in range(1, len(times)):
            if t <= times[i]:
                t0, t1 = times[i - 1], times[i]
                v0, v1 = values[i - 1], values[i]
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return values[-1]


Element = MosElement | CapElement | ResElement | SourceElement
Entry = Element | Comment


@dataclass
class Netlist:
    title: str = ""
    entries: list[Entry] = field(default_factory=list)
    # The extractor's totals and the role annotations: the parser reads
    # them from their comments, which stay out of `entries`, and the
    # printer writes them from these fields.
    declared_node_count: int | None = None
    declared_element_count: int | None = None
    roles: dict[str, str] = field(default_factory=dict)

    @property
    def elements(self) -> list[Element]:
        return [e for e in self.entries if not isinstance(e, Comment)]

    @property
    def comments(self) -> list[Comment]:
        return [e for e in self.entries if isinstance(e, Comment)]

    @property
    def mos_elements(self) -> list[MosElement]:
        return [e for e in self.entries if isinstance(e, MosElement)]

    @property
    def element_count(self) -> int:
        return len(self.elements)

    def named_nodes(self) -> list[str]:
        """Distinct non-ground, non-placeholder node names in first-use order."""
        seen: dict[str, None] = {}
        for element in self.elements:
            for node in element.nodes:
                if not node.placeholder and not node.is_ground:
                    seen.setdefault(node.name, None)
        return list(seen)

    @property
    def node_count(self) -> int:
        return len(self.named_nodes())

    def placeholder_nodes(self) -> list[Node]:
        return [
            node
            for element in self.elements
            for node in element.nodes
            if node.placeholder
        ]

    def degenerate_elements(self) -> list[Element]:
        return [e for e in self.elements if e.degenerate]

    def element(self, element_id: str) -> Element:
        for e in self.elements:
            if e.id == element_id:
                return e
        raise KeyError(element_id)

    def role_node(self, role: str) -> str:
        try:
            return self.roles[role]
        except KeyError:
            raise NetlistError(f"netlist carries no {role!r} role annotation") from None


def _parse_value(token: str, lineno: int, what: str) -> float:
    try:
        return parse_spice_number(token)
    except ValueError:
        raise NetlistSyntaxError(lineno, f"bad {what} value {token!r}") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.net = Netlist()
        self.nodes: dict[str, Node] = {}
        self.ids: dict[str, int] = {}
        self.placeholder_count = 0

    def node(self, token: str) -> Node:
        if token == "?":
            self.placeholder_count += 1
            return Node("?", placeholder=True, ordinal=self.placeholder_count)
        if token not in self.nodes:
            self.nodes[token] = Node(token)
        return self.nodes[token]

    def register_id(self, element_id: str, lineno: int) -> None:
        key = element_id.upper()
        if key in self.ids:
            raise NetlistSemanticError(
                lineno,
                f"duplicate element id {element_id!r} (first on line {self.ids[key]})",
            )
        self.ids[key] = lineno

    def run(self) -> Netlist:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("*"):
                self.comment(line, lineno)
                continue
            if line.startswith("."):
                if line.upper() == ".END":
                    break
                raise NetlistSyntaxError(lineno, f"unsupported directive {line.split()[0]!r}")
            self.card(line, lineno)
        return self.net

    def comment(self, line: str, lineno: int) -> None:
        """A bounding box, totals or roles line goes into its field.  Any
        other comment is the title when no title or entry precedes it, and
        an entry otherwise: the printer writes the roles and totals in
        places of their own, so they cannot claim the title's place."""
        bbox = _BBOX_RE.match(line)
        if bbox is not None:
            owner = bbox.group(1)
            prev = self.net.elements[-1] if self.net.elements else None
            if isinstance(prev, MosElement) and prev.id == owner:
                coords = bbox.group(2).split()
                if len(coords) != 4:
                    raise NetlistSyntaxError(lineno, "bounding box needs 4 coordinates")
                prev.bbox = tuple(_parse_value(c, lineno, "bbox") for c in coords)
                return
        total = _TOTAL_RE.match(line)
        if total is not None:
            count = int(total.group(2))
            if total.group(1).lower() == "nodes":
                self.net.declared_node_count = count
            else:
                self.net.declared_element_count = count
            return
        roles = _ROLES_RE.match(line)
        if roles is not None:
            for pair in roles.group(1).split():
                if "=" not in pair:
                    raise NetlistSyntaxError(lineno, f"bad role annotation {pair!r}")
                key, _, value = pair.partition("=")
                self.net.roles[key] = value
            return
        if not self.net.title and not self.net.entries:
            self.net.title = line.lstrip("*").strip()
        else:
            self.net.entries.append(Comment(line))

    def card(self, line: str, lineno: int) -> None:
        letter = line[0].upper()
        handler = {
            "M": self.mos_card,
            "C": self.value_card,
            "R": self.value_card,
            "V": self.source_card,
            "I": self.source_card,
        }.get(letter)
        if handler is None:
            raise NetlistSyntaxError(lineno, f"unknown card type {line.split()[0]!r}")
        handler(line, lineno)

    def mos_card(self, line: str, lineno: int) -> None:
        tokens = line.split()
        if len(tokens) < 6:
            raise NetlistSyntaxError(lineno, "M card needs drain gate source bulk and polarity")
        element_id = tokens[0]
        self.register_id(element_id, lineno)
        polarity = tokens[5].upper()
        if polarity not in ("NMOS", "PMOS"):
            raise NetlistSyntaxError(lineno, f"bad polarity {tokens[5]!r}")
        fields: dict[str, float] = {}
        for token in tokens[6:]:
            key, eq, value = token.partition("=")
            if not eq or key.upper() not in _MOS_KEY_TO_FIELD:
                raise NetlistSyntaxError(lineno, f"bad M-card field {token!r}")
            name = _MOS_KEY_TO_FIELD[key.upper()]
            if name in fields:
                raise NetlistSyntaxError(lineno, f"repeated M-card field {key!r}")
            fields[name] = _parse_value(value, lineno, key.upper())
        if "l" not in fields or "w" not in fields:
            raise NetlistSyntaxError(lineno, "M card needs both L= and W=")
        if fields["l"] < 0 or fields["w"] < 0:
            raise NetlistSyntaxError(lineno, "negative device geometry")
        self.net.entries.append(MosElement(element_id, *map(self.node, tokens[1:5]), polarity, **fields))

    def value_card(self, line: str, lineno: int) -> None:
        tokens = line.split()
        key = tokens[0][0].upper()
        if len(tokens) != 4:
            raise NetlistSyntaxError(lineno, f"{key} card needs two nodes and one value")
        value_token = tokens[3]
        prefix, eq, rest = value_token.partition("=")
        if eq:
            if prefix.upper() != key:
                raise NetlistSyntaxError(lineno, f"bad {key}-card field {value_token!r}")
            value_token = rest
        value = _parse_value(value_token, lineno, key)
        if value < 0:
            raise NetlistSyntaxError(lineno, f"negative {key} value")
        self.register_id(tokens[0], lineno)
        element_type = CapElement if key == "C" else ResElement
        self.net.entries.append(element_type(tokens[0], *map(self.node, tokens[1:3]), value))

    def source_card(self, line: str, lineno: int) -> None:
        tokens = line.split()
        if len(tokens) < 4:
            raise NetlistSyntaxError(lineno, "source card needs two nodes and a value")
        element_id = tokens[0]
        self.register_id(element_id, lineno)
        rest = " ".join(tokens[3:])
        upper = rest.upper()
        if upper.startswith("PULSE") or upper.startswith("PWL"):
            kind = "PULSE" if upper.startswith("PULSE") else "PWL"
            m = re.match(r"^\w+\s*\(([^)]*)\)$", rest)
            if m is None:
                raise NetlistSyntaxError(lineno, f"malformed {kind} specification")
            values = tuple(_parse_value(v, lineno, kind) for v in m.group(1).split())
            self._check_source_params(kind, values, lineno)
            params = values
        elif upper.startswith("DC"):
            kind = "DC"
            params = (_parse_value(rest[2:].strip(), lineno, "DC"),)
        else:
            if len(tokens) != 4:
                raise NetlistSyntaxError(lineno, "bad source value")
            kind = "DC"
            params = (_parse_value(tokens[3], lineno, "DC"),)
        self.net.entries.append(SourceElement(element_id, *map(self.node, tokens[1:3]), kind, params))

    @staticmethod
    def _check_source_params(kind: str, values: tuple[float, ...], lineno: int) -> None:
        if kind == "PULSE":
            if len(values) != 7:
                raise NetlistSyntaxError(lineno, "PULSE needs v1 v2 td tr tf pw per")
            if values[3] <= 0 or values[4] <= 0:
                raise NetlistSyntaxError(lineno, "PULSE rise and fall times must be > 0")
        else:
            if len(values) < 4 or len(values) % 2:
                raise NetlistSyntaxError(lineno, "PWL needs time/value pairs")
            times = values[0::2]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise NetlistSyntaxError(lineno, "PWL times must be strictly increasing")


def parse_netlist(text: str) -> Netlist:
    """Parse dialect text into a Netlist; line numbers appear in errors."""
    return _Parser(text).run()


def _format_card(element: Element) -> list[str]:
    head = " ".join(map(str, (element.id, *element.nodes)))
    if isinstance(element, MosElement):
        l, w = format_spice_number(element.l), format_spice_number(element.w)
        card = f"{head} {element.polarity} L={l} W={w}"
        for name in MOS_FIELD_ORDER:
            value = getattr(element, name)
            if value is not None:
                card += f" {name.rstrip('_').upper()}={format_spice_number(value)}"
        lines = [card]
        if element.bbox is not None:
            coords = " ".join(format_spice_number(c) for c in element.bbox)
            lines.append(f"* {element.id} DRAIN GATE SOURCE BULK ({coords})")
        return lines
    if isinstance(element, CapElement):
        return [f"{head} C={format_spice_number(element.value)}"]
    if isinstance(element, ResElement):
        return [f"{head} R={format_spice_number(element.value)}"]
    if element.kind == "DC":
        return [f"{head} DC {format_spice_number(element.params[0])}"]
    body = " ".join(format_spice_number(v) for v in element.params)
    return [f"{head} {element.kind}({body})"]


def print_netlist(net: Netlist) -> str:
    """Canonical text form: the title, the roles, the entries, then the
    totals; printing is idempotent under parse/print cycles."""
    lines: list[str] = []
    if net.title:
        lines.append(f"* {net.title}")
    if net.roles:
        lines.append("* roles: " + " ".join(f"{k}={v}" for k, v in net.roles.items()))
    for entry in net.entries:
        if isinstance(entry, Comment):
            lines.append(entry.text)
        else:
            lines.extend(_format_card(entry))
    if net.declared_node_count is not None:
        lines.append(f"* Total Nodes: {net.declared_node_count}")
    if net.declared_element_count is not None:
        lines.append(f"* Total Elements: {net.declared_element_count}")
    lines.append(".END")
    return "\n".join(lines) + "\n"


def validate(net: Netlist) -> AnalysisReport:
    """Structural audit: counts, declared-total cross-check, stub elements,
    unresolved nodes, under-connected nodes, and extractor warnings."""
    report = AnalysisReport()
    report.add("elements", net.element_count)
    report.add("nodes", net.node_count)

    if net.declared_element_count is not None:
        ok = net.declared_element_count == net.element_count
        report.add(
            "declared_elements_match", net.declared_element_count, verdict="pass" if ok else "fail"
        )
    if net.declared_node_count is not None:
        ok = net.declared_node_count == net.node_count
        report.add(
            "declared_nodes_match", net.declared_node_count, verdict="pass" if ok else "fail"
        )

    degenerate = net.degenerate_elements()
    report.add("degenerate_elements", len(degenerate))
    report.add("placeholder_nodes", len(net.placeholder_nodes()))

    # Under-connected nodes: touched by fewer than two live elements.  Role
    # annotated nodes are external ports and exempt; placeholders are already
    # reported above.
    touches: dict[str, int] = {}
    for element in net.elements:
        if element.degenerate:
            continue
        for node in set(n.name for n in element.nodes if not n.placeholder):
            touches[node] = touches.get(node, 0) + 1
    ports = set(net.roles.values())
    floating = sorted(n for n, k in touches.items() if k < 2 and n not in ports)
    report.add("floating_nodes", len(floating))
    for name in floating:
        report.add(f"floating_node.{name}", 1)

    warnings_found = sum(1 for c in net.comments if _ZERO_CAP_RE.search(c.text))
    report.add("zero_cap_warnings", warnings_found)
    return report


def with_elements(net: Netlist, extra: list[Element]) -> Netlist:
    """Copy of `net` with additional elements appended (comments untouched).
    The copy declares no totals: the extractor's counts describe `net`, not
    the grown circuit.  Element ids compare case-insensitively; a clash
    raises NetlistError."""
    taken = {e.id.upper() for e in net.elements}
    for e in extra:
        if e.id.upper() in taken:
            raise NetlistError(f"netlist already contains an element named {e.id}")
        taken.add(e.id.upper())
    copy = replace(
        net, entries=list(net.entries) + list(extra), declared_node_count=None, declared_element_count=None
    )
    copy.roles = dict(net.roles)
    return copy


def instantiate(block: Netlist, suffix: str, ports: dict[str, str]) -> list[Element]:
    """The elements of `block` as one instance inside a parent netlist.

    Element ids take `suffix`.  A node carrying a role named in `ports`
    becomes the parent node given there, ground stays ground, and every
    other node takes `suffix`.  Comments, roles and the trailer stay behind.
    """
    parent = {block.role_node(role): name for role, name in ports.items()}
    rename = {name: Node(parent.get(name, name + suffix)) for name in block.named_nodes()}

    def renamed(e: Element) -> dict[str, Node]:
        return {f: rename.get(n.name, n) for f, n in zip(e.TERMINALS, e.nodes)}

    return [replace(e, id=e.id + suffix, **renamed(e)) for e in block.elements]
