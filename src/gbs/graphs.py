"""Labelled graphs: the representation of a GBS group.

A labelled graph is a finite graph whose oriented edges carry nonzero
integer labels.  Each non-oriented edge is stored once, as a name with an
endpoint pair and a label pair; the oriented edge (name, end) has origin
``endpoints[end]`` and label ``labels[end]``.  Loops are allowed (equal
endpoints, two labels).

Graph values are immutable by convention: every move returns a new graph
together with a replayable MoveRecord.  The multi-move routines
(`reduce_graph`, `canonicalize_signs`) edit one working copy and build their
result graph once, with the same records as the single moves.  No query
result is cached on a graph (the incidence index `_incidence` is its only
lazily built field); each public entry point computes an invariant once and
passes it down.
"""

from dataclasses import dataclass
from typing import Iterable, Optional

from .arith import gcd
from .errors import (
    DisconnectedGraphError,
    InputError,
    MoveError,
    ShapeError,
)


def id_key(name: str):
    """Deterministic ordering for vertex/edge names: v2 before v10."""
    return (len(name), name)


@dataclass(frozen=True, order=True)
class OrientedEdge:
    edge: str
    end: int

    @property
    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(self.edge, 1 - self.end)


@dataclass(frozen=True)
class EdgeData:
    endpoints: tuple[str, str]
    labels: tuple[int, int]


class LabelledGraph:
    def __init__(self, vertices: Iterable[str], edges: dict[str, EdgeData]):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)
        for name, ed in self.edges.items():
            if ed.labels[0] == 0 or ed.labels[1] == 0:
                raise InputError(f"edge {name} has a zero label")
            for v in ed.endpoints:
                if v not in self.vertices:
                    raise InputError(f"edge {name} touches unknown vertex {v}")
        if not self.vertices:
            raise InputError("graph needs at least one vertex")
        # vertex -> oriented edges at it, built on first use (graphs never change)
        self._incidence = None

    # -- basic accessors ------------------------------------------------

    def origin(self, oe: OrientedEdge) -> str:
        return self.edges[oe.edge].endpoints[oe.end]

    def terminus(self, oe: OrientedEdge) -> str:
        return self.edges[oe.edge].endpoints[1 - oe.end]

    def label(self, oe: OrientedEdge) -> int:
        return self.edges[oe.edge].labels[oe.end]

    def colabel(self, oe: OrientedEdge) -> int:
        """Label of the reversed edge (at the far endpoint)."""
        return self.edges[oe.edge].labels[1 - oe.end]

    def is_loop(self, edge: str) -> bool:
        a, b = self.edges[edge].endpoints
        return a == b

    def edges_at(self, v: str) -> tuple[OrientedEdge, ...]:
        """Oriented edges with origin v, in (edge id, end) order."""
        if self._incidence is None:
            index = {u: [] for u in self.vertices}
            for name in self.sorted_edges():
                for end, u in enumerate(self.edges[name].endpoints):
                    index[u].append(OrientedEdge(name, end))
            self._incidence = {u: tuple(oes) for u, oes in index.items()}
        return self._incidence.get(v, ())

    def valence(self, v: str) -> int:
        return len(self.edges_at(v))

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices, key=id_key)

    def sorted_edges(self) -> list[str]:
        return sorted(self.edges, key=id_key)

    def labels(self) -> list[int]:
        return [l for ed in self.edges.values() for l in ed.labels]

    # -- global properties ----------------------------------------------

    def is_connected(self) -> bool:
        verts = self.sorted_vertices()
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for oe in self.edges_at(v):
                w = self.terminus(oe)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def require_connected(self):
        if not self.is_connected():
            raise DisconnectedGraphError("graph is not connected")

    def betti(self) -> int:
        self.require_connected()
        return len(self.edges) - len(self.vertices) + 1

    def is_reduced(self) -> bool:
        return all(
            self.is_loop(name)
            for name, ed in self.edges.items()
            if 1 in (abs(ed.labels[0]), abs(ed.labels[1]))
        )

    # -- equality / serialization ----------------------------------------

    def _key(self):
        return (
            tuple(self.sorted_vertices()),
            tuple((n, self.edges[n].endpoints, self.edges[n].labels) for n in self.sorted_edges()),
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LabelledGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = [
            f"{n}:{self.edges[n].endpoints[0]}({self.edges[n].labels[0]})-"
            f"({self.edges[n].labels[1]}){self.edges[n].endpoints[1]}"
            for n in self.sorted_edges()
        ]
        return f"LabelledGraph[{' '.join(parts) or ','.join(self.sorted_vertices())}]"

    def to_json(self) -> dict:
        return {
            "vertices": self.sorted_vertices(),
            "edges": [
                {
                    "name": n,
                    "endpoints": list(self.edges[n].endpoints),
                    "labels": list(self.edges[n].labels),
                }
                for n in self.sorted_edges()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabelledGraph":
        edges = {
            e["name"]: EdgeData(tuple(e["endpoints"]), tuple(int(x) for x in e["labels"]))
            for e in data["edges"]
        }
        return cls(data["vertices"], edges)

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.sorted_vertices()]
        for n in self.sorted_edges():
            ed = self.edges[n]
            lines.append(
                f"edge {n} {ed.endpoints[0]} {ed.endpoints[1]} {ed.labels[0]} {ed.labels[1]}"
            )
        return "\n".join(lines) + "\n"

    def fresh_vertex(self, stem: str = "u") -> str:
        i = 0
        while f"{stem}{i}" in self.vertices:
            i += 1
        return f"{stem}{i}"

    def fresh_edge(self, stem: str = "x") -> str:
        i = 0
        while f"{stem}{i}" in self.edges:
            i += 1
        return f"{stem}{i}"


# -- constructors ---------------------------------------------------------


def graph_from_edges(edge_list, extra_vertices=()) -> LabelledGraph:
    """edge_list: iterable of (name, v, w, label_near_v, label_near_w)."""
    vertices = set(extra_vertices)
    edges = {}
    for name, v, w, lv, lw in edge_list:
        vertices.add(v)
        vertices.add(w)
        if name in edges:
            raise InputError(f"duplicate edge name {name}")
        edges[name] = EdgeData((v, w), (int(lv), int(lw)))
    return LabelledGraph(vertices, edges)


def bs_graph(m: int, n: int) -> LabelledGraph:
    """The one-loop graph of BS(m, n): t a^m t^-1 = a^n."""
    if m == 0 or n == 0:
        raise InputError("BS parameters must be nonzero")
    return graph_from_edges([("e0", "v0", "v0", m, n)])


def segment_graph(q_r: list[int]) -> LabelledGraph:
    """segment q0 r1 q1 r2 ... : k edges, labels q_i near v_i, r_{i+1} near v_{i+1}."""
    if len(q_r) < 2 or len(q_r) % 2:
        raise InputError("segment needs labels q0 r1 [q1 r2 ...]")
    k = len(q_r) // 2
    edges = []
    for i in range(k):
        edges.append((f"s{i}", f"v{i}", f"v{i+1}", q_r[2 * i], q_r[2 * i + 1]))
    return graph_from_edges(edges)


def circle_graph(x_y: list[int]) -> LabelledGraph:
    """circle x0 y1 x1 y2 ... : cycle of ell edges, x_j near w_j, y_{j+1} near w_{j+1}."""
    if len(x_y) < 2 or len(x_y) % 2:
        raise InputError("circle needs labels x0 y1 [x1 y2 ...]")
    ell = len(x_y) // 2
    if ell == 1:
        return graph_from_edges([("c0", "w0", "w0", x_y[0], x_y[1])])
    edges = []
    for j in range(ell):
        edges.append((f"c{j}", f"w{j}", f"w{(j + 1) % ell}", x_y[2 * j], x_y[2 * j + 1]))
    return graph_from_edges(edges)


def lollipop_graph(q_r: list[int], x_y: list[int]) -> LabelledGraph:
    """Segment labels q0 r1 ... attached at w0, circle labels x0 y1 ...."""
    if len(q_r) < 2 or len(q_r) % 2 or len(x_y) < 2 or len(x_y) % 2:
        raise InputError("lollipop needs segment labels and circle labels")
    k = len(q_r) // 2
    ell = len(x_y) // 2
    edges = []
    for i in range(k):
        target = f"v{i+1}" if i < k - 1 else "w0"
        edges.append((f"s{i}", f"v{i}", target, q_r[2 * i], q_r[2 * i + 1]))
    for j in range(ell):
        edges.append((f"c{j}", f"w{j}", f"w{(j + 1) % ell}", x_y[2 * j], x_y[2 * j + 1]))
    return graph_from_edges(edges)


def parse_graph(text: str) -> LabelledGraph:
    """Text format: one construct per line, '#' comments, plus shorthand."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputError("empty graph description")
    head = lines[0].split()
    if head[0] in ("segment", "circle", "lollipop", "bs"):
        if len(lines) != 1:
            raise InputError(f"shorthand '{head[0]}' must be the only line")
        try:
            if head[0] == "segment":
                return segment_graph([int(t) for t in head[1:]])
            if head[0] == "circle":
                return circle_graph([int(t) for t in head[1:]])
            if head[0] == "bs":
                m, n = (int(t) for t in head[1:])
                return bs_graph(m, n)
            bar = head.index("|")
            k = int(head[1])
            q_r = [int(t) for t in head[2:bar]]
            x_y = [int(t) for t in head[bar + 1 :]]
            if len(q_r) != 2 * k:
                raise InputError(f"lollipop: expected {2*k} segment labels")
            return lollipop_graph(q_r, x_y)
        except (ValueError, IndexError) as exc:
            raise InputError(f"bad shorthand line: {lines[0]!r}") from exc
    vertices = []
    edge_rows = []
    for i, line in enumerate(lines, 1):
        tok = line.split()
        try:
            if tok[0] == "vertex" and len(tok) == 2:
                vertices.append(tok[1])
            elif tok[0] == "edge" and len(tok) == 6:
                edge_rows.append((tok[1], tok[2], tok[3], int(tok[4]), int(tok[5])))
            else:
                raise InputError(f"line {i}: cannot parse {line!r}")
        except ValueError as exc:
            raise InputError(f"line {i}: bad integer in {line!r}") from exc
    return graph_from_edges(edge_rows, extra_vertices=vertices)


# -- moves ----------------------------------------------------------------


@dataclass(frozen=True)
class MoveRecord:
    kind: str
    params: tuple

    def to_json(self):
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_json(cls, data):
        def fix(p):
            return tuple(fix(x) for x in p) if isinstance(p, list) else p

        return cls(data["kind"], tuple(fix(p) for p in data["params"]))


def _exact(x, what: str) -> int:
    """x when it is an int (a bool or float is refused: labels stay exact)."""
    if type(x) is not int:
        raise MoveError(f"{what} must be an integer, not {x!r}")
    return x


def _end(x, what: str = "end") -> int:
    if type(x) is not int or x not in (0, 1):
        raise MoveError(f"{what} must be 0 or 1, not {x!r}")
    return x


def _rescaled(ed: EdgeData, at: dict) -> EdgeData:
    """`ed` with each end at a vertex u in `at` re-rooted at at[u][1] and its
    label multiplied by at[u][0]."""
    (a, b), (la, lb) = ed.endpoints, ed.labels
    (ma, ua), (mb, ub) = at.get(a, (1, a)), at.get(b, (1, b))
    return EdgeData((ua, ub), (la * ma, lb * mb))


def _rescaled_edges(g: LabelledGraph, at: dict, drop: str | None = None) -> dict:
    """The edges of g less `drop`, each `_rescaled` by `at` where it meets it."""
    edges = {}
    for name, ed in g.edges.items():
        if name != drop:
            a, b = ed.endpoints
            edges[name] = _rescaled(ed, at) if a in at or b in at else ed
    return edges


def sign_change(g: LabelledGraph, *, vertex: str | None = None, edge: str | None = None):
    """Negate all labels near a vertex, or both labels of an edge."""
    if (vertex is None) == (edge is None):
        raise MoveError("sign change needs exactly one of vertex / edge")
    if vertex is not None:
        if type(vertex) is not str or vertex not in g.vertices:
            raise MoveError(f"unknown vertex {vertex}")
        edges = _rescaled_edges(g, {vertex: (-1, vertex)})
        rec = MoveRecord("sign-change", ("vertex", vertex))
    else:
        if type(edge) is not str or edge not in g.edges:
            raise MoveError(f"unknown edge {edge}")
        ed = g.edges[edge]
        edges = dict(g.edges)
        edges[edge] = EdgeData(ed.endpoints, (-ed.labels[0], -ed.labels[1]))
        rec = MoveRecord("sign-change", ("edge", edge))
    return LabelledGraph(g.vertices, edges), rec


def collapse(g: LabelledGraph, edge: str, end: int | None = None):
    """Elementary collapse of a non-loop edge carrying a +-1 label.

    The vertex at the unit-label end disappears; every other label near it
    is multiplied by (unit sign) * (far label).
    """
    if type(edge) is not str or edge not in g.edges:
        raise MoveError(f"unknown edge {edge}")
    if g.is_loop(edge):
        raise MoveError(f"cannot collapse loop {edge}")
    ed = g.edges[edge]
    if end is None:
        units = [k for k in (0, 1) if abs(ed.labels[k]) == 1]
        if not units:
            raise MoveError(f"edge {edge} has no unit label")
        end = units[0]
    elif type(end) is not int or end not in (0, 1):
        raise MoveError(f"end must be 0 or 1, not {end!r}")
    if abs(ed.labels[end]) != 1:
        raise MoveError(f"label of {edge} at end {end} is not +-1")
    removed = ed.endpoints[end]
    survivor = ed.endpoints[1 - end]
    mult = ed.labels[end] * ed.labels[1 - end]
    edges = _rescaled_edges(g, {removed: (mult, survivor)}, drop=edge)
    rec = MoveRecord("collapse", (edge, end, removed, survivor, mult))
    return LabelledGraph(g.vertices - {removed}, edges), rec


def expansion(
    g: LabelledGraph,
    vertex: str,
    moved: list[OrientedEdge],
    label: int,
    sgn: int = 1,
    new_vertex: str | None = None,
    new_edge: str | None = None,
):
    """Inverse of collapse: split a new vertex off `vertex`.

    A new edge (label near `vertex`, sgn near the new vertex) is created and
    the oriented edges in `moved` are re-rooted at the new vertex, their
    labels divided by sgn*label.
    """
    if type(vertex) is not str or vertex not in g.vertices:
        raise MoveError(f"unknown vertex {vertex}")
    if _exact(label, "expansion label") == 0 or _exact(sgn, "expansion sign") not in (1, -1):
        raise MoveError("expansion needs a nonzero label and sign +-1")
    div = sgn * label
    for oe in moved:
        if type(oe.edge) is not str or oe.edge not in g.edges:
            raise MoveError(f"unknown edge {oe.edge}")
        _end(oe.end)
        if g.origin(oe) != vertex:
            raise MoveError(f"{oe} does not start at {vertex}")
        if g.label(oe) % div != 0:
            raise MoveError(f"label {g.label(oe)} of {oe} not divisible by {div}")
    new_vertex = new_vertex or g.fresh_vertex()
    new_edge = new_edge or g.fresh_edge()
    if type(new_vertex) is not str or type(new_edge) is not str or new_vertex in g.vertices or new_edge in g.edges:
        raise MoveError("new vertex/edge names must be strings not already in use")
    moved_set = {(oe.edge, oe.end) for oe in moved}
    edges = {}
    for name, ed in g.edges.items():
        endpoints = list(ed.endpoints)
        labels = list(ed.labels)
        for k in (0, 1):
            if (name, k) in moved_set:
                endpoints[k] = new_vertex
                labels[k] //= div
        edges[name] = EdgeData(tuple(endpoints), tuple(labels))
    edges[new_edge] = EdgeData((vertex, new_vertex), (label, sgn))
    rec = MoveRecord(
        "expansion",
        (vertex, tuple(sorted(moved_set)), label, sgn, new_vertex, new_edge),
    )
    return LabelledGraph(g.vertices | {new_vertex}, edges), rec


def contraction_move(g: LabelledGraph, edge: str, survivor_end: int = 0):
    """Contract a non-loop edge vw with labels q, r: labels near v are
    multiplied by r/(q^r), labels near w by q/(q^r), and the endpoint at
    `survivor_end` absorbs the other.  An epimorphism (proper unless q or r
    is a unit).  The record is (edge, survivor, removed, q, r, q^r)."""
    if type(edge) is not str or edge not in g.edges:
        raise MoveError(f"unknown edge {edge}")
    if g.is_loop(edge):
        raise MoveError(f"cannot contract loop {edge}")
    _end(survivor_end, "survivor_end")
    ed = g.edges[edge]
    v, w = ed.endpoints
    q, r = ed.labels
    d = gcd(q, r)
    survivor, removed = ed.endpoints[survivor_end], ed.endpoints[1 - survivor_end]
    edges = _rescaled_edges(g, {v: (r // d, survivor), w: (q // d, survivor)}, drop=edge)
    rec = MoveRecord("contraction", (edge, survivor, removed, q, r, d))
    return LabelledGraph(g.vertices - {removed}, edges), rec


def displacement_move(g: LabelledGraph, edge: str, r: int, divided_end: int):
    """Move the factor r of the label at `divided_end` across the edge: that
    label is divided by r, every other label at the far endpoint is
    multiplied by r.  Requires r coprime to the far label of the edge."""
    if type(edge) is not str or edge not in g.edges:
        raise MoveError(f"unknown edge {edge}")
    if g.is_loop(edge):
        raise MoveError("displacement across a loop is not defined")
    ed = g.edges[edge]
    rs = ed.labels[_end(divided_end, "divided end")]
    q = ed.labels[1 - divided_end]
    if _exact(r, "displacement factor") == 0 or rs % r != 0:
        raise MoveError(f"{r} does not divide the label {rs}")
    if gcd(q, r) != 1:
        raise MoveError(f"factor {r} not coprime to far label {q}")
    v = ed.endpoints[1 - divided_end]
    edges = _rescaled_edges(g, {v: (r, v)})
    labels = list(ed.labels)
    labels[divided_end] //= r
    edges[edge] = EdgeData(ed.endpoints, tuple(labels))
    rec = MoveRecord("displacement", (edge, r, divided_end))
    return LabelledGraph(g.vertices, edges), rec


_ARITY = {"sign-change": 2, "collapse": 5, "expansion": 6, "contraction": 6, "displacement": 3}


def apply_move(g: LabelledGraph, rec: MoveRecord) -> LabelledGraph:
    """Replay a MoveRecord (used to verify certificate traces).  Records are
    read from certificate JSON, so a malformed one raises MoveError; the
    checks here and in the moves read the record, never every edge."""
    kind, params = rec.kind, rec.params
    if type(kind) is not str or type(params) is not tuple or _ARITY.get(kind) != len(params):
        raise MoveError(f"malformed move record {kind!r} {params!r}")
    if kind == "collapse":
        out, rec2 = collapse(g, params[0], params[1])
        if rec2.params != params:
            raise MoveError(f"collapse replay mismatch on {params[0]}")
        return out
    if kind == "sign-change":
        what, name = params
        if what not in ("vertex", "edge"):
            raise MoveError(f"a sign change is at a vertex or an edge, not {what!r}")
        out, _ = sign_change(g, **{what: name})
        return out
    if kind == "expansion":
        vertex, moved, label, sgn, new_vertex, new_edge = params
        if type(moved) is not tuple or any(type(m) is not tuple or len(m) != 2 for m in moved):
            raise MoveError(f"expansion moves (edge, end) pairs, not {moved!r}")
        moved = [OrientedEdge(e, k) for e, k in moved]
        out, _ = expansion(g, vertex, moved, label, sgn, new_vertex, new_edge)
        return out
    if kind == "contraction":
        edge, survivor = params[:2]
        survivor_end = int(type(edge) is str and edge in g.edges and g.edges[edge].endpoints[1] == survivor)
        out, rec2 = contraction_move(g, edge, survivor_end)
        if rec2.params != params:
            raise MoveError("contraction replay mismatch")
        return out
    out, _ = displacement_move(g, *params)
    return out


def reduce_graph(g: LabelledGraph, protect: str | None = None):
    """Collapse unit-label non-loop edges until none remain (reduced graph).

    Deterministic: lowest edge id first, end 0 before end 1.  With
    `protect`, collapses removing that vertex are skipped (the result may
    then fail to be reduced).  A collapse only multiplies labels by nonzero
    integers and merges two vertices, so an edge passed over never becomes
    collapsible later: one pass in edge id order makes the same moves as
    rescanning after every collapse.  Each collapse rewrites only the edges
    at the removed vertex of one working copy; the result is built once."""
    g.require_connected()
    edges = dict(g.edges)
    incident = {v: set() for v in g.vertices}  # vertex -> names of the edges at it
    for name, ed in edges.items():
        for v in ed.endpoints:
            incident[v].add(name)
    records = []
    for name in g.sorted_edges():
        ed = edges[name]
        for end in (0, 1):
            removed, survivor = ed.endpoints[end], ed.endpoints[1 - end]
            if abs(ed.labels[end]) == 1 and removed != survivor and removed != protect:
                mult = ed.labels[end] * ed.labels[1 - end]
                del edges[name]
                incident[survivor].discard(name)
                at = {removed: (mult, survivor)}
                for other in incident.pop(removed) - {name}:
                    edges[other] = _rescaled(edges[other], at)
                    incident[survivor].add(other)
                records.append(MoveRecord("collapse", (name, end, removed, survivor, mult)))
                break
    return (LabelledGraph(incident, edges) if records else g), records


def canonicalize_signs(g: LabelledGraph):
    """Admissible sign changes making all but at most beta(G) labels positive.

    Tree labels become positive; each non-tree edge keeps at most one
    negative label, placed at end 1.  Deterministic.  The moves edit one
    working copy of the labels; the result is built once."""
    tree = spanning_tree(g)
    labels = {name: list(ed.labels) for name, ed in g.edges.items()}
    records = []
    root = g.sorted_vertices()[0]
    # BFS order over tree edges
    seen = {root}
    order = []
    queue = [root]
    while queue:
        v = queue.pop(0)
        for oe in g.edges_at(v):
            if oe.edge in tree and g.terminus(oe) not in seen:
                seen.add(g.terminus(oe))
                order.append(oe)
                queue.append(g.terminus(oe))
    for oe in order:
        lab = labels[oe.edge]
        if lab[oe.end] < 0:
            lab[0], lab[1] = -lab[0], -lab[1]
            records.append(MoveRecord("sign-change", ("edge", oe.edge)))
        if lab[1 - oe.end] < 0:
            child = g.terminus(oe)
            for near in g.edges_at(child):
                labels[near.edge][near.end] *= -1
            records.append(MoveRecord("sign-change", ("vertex", child)))
    for name in g.sorted_edges():
        if name not in tree and labels[name][0] < 0:
            labels[name] = [-l for l in labels[name]]
            records.append(MoveRecord("sign-change", ("edge", name)))
    if records:
        g = LabelledGraph(g.vertices, {n: EdgeData(ed.endpoints, tuple(labels[n])) for n, ed in g.edges.items()})
    return g, records


def spanning_tree(g: LabelledGraph) -> frozenset[str]:
    """Deterministic BFS spanning tree (set of edge names); its search is the
    connectivity check."""
    root = g.sorted_vertices()[0]
    seen = {root}
    tree = set()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for oe in g.edges_at(v):
            w = g.terminus(oe)
            if w not in seen:
                seen.add(w)
                tree.add(oe.edge)
                queue.append(w)
    if len(seen) != len(g.vertices):
        raise DisconnectedGraphError("graph is not connected")
    return frozenset(tree)


# -- shape classification ---------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Homeomorphism type of a connected graph, with labels read off in the
    standard numbering.  `kind` is segment / circle / lollipop / other."""

    kind: str
    seg_vertices: tuple[str, ...] = ()
    seg_edges: tuple[OrientedEdge, ...] = ()  # oriented v_i -> v_{i+1}
    q: tuple[int, ...] = ()
    r: tuple[int, ...] = ()  # r[i] is the label written r_{i+1} in the standard numbering
    circ_vertices: tuple[str, ...] = ()
    circ_edges: tuple[OrientedEdge, ...] = ()  # oriented w_j -> w_{j+1}
    x: tuple[int, ...] = ()
    y: tuple[int, ...] = ()  # y[j] is the label written y_{j+1} in the standard numbering
    base_meets_all_plateaus: bool = True

    @property
    def k(self) -> int:
        return len(self.seg_edges)

    @property
    def ell(self) -> int:
        return len(self.circ_edges)


@dataclass(frozen=True)
class QRXY:
    Q: int
    R: int
    X: Optional[int]
    Y: Optional[int]


def _walk_path(g: LabelledGraph, start: str, stop_at) -> tuple[list[str], list[OrientedEdge]]:
    verts = [start]
    path = []
    prev = None
    cur = start
    while True:
        nxt = [oe for oe in g.edges_at(cur) if oe != prev]
        if prev is not None:
            nxt = [oe for oe in nxt if oe != prev.reverse]
        oe = nxt[0]
        path.append(oe)
        cur = g.terminus(oe)
        verts.append(cur)
        prev = oe
        if stop_at(cur):
            return verts, path


def _cycle_from(g: LabelledGraph, base: str, skip: str | None = None) -> list[OrientedEdge] | None:
    """The cycle walked from `base` along its first edge other than `skip`;
    None when there is no such edge or a vertex on the way branches."""
    first = next((oe for oe in g.edges_at(base) if oe.edge != skip), None)
    if first is None:
        return None
    cyc = [first]
    cur = g.terminus(first)
    prev = first
    while cur != base:
        nxt = [oe for oe in g.edges_at(cur) if oe != prev.reverse]
        if len(nxt) != 1:
            return None
        oe = nxt[0]
        cyc.append(oe)
        cur = g.terminus(oe)
        prev = oe
    return cyc


def classify_shape(g: LabelledGraph, *, _plateau_sets=None) -> Shape:
    """Segment / circle / lollipop recognition per the standard numbering.

    For circles the base w_0 is a vertex meeting every plateau when one
    exists (lowest id wins); otherwise the lowest id with a recording flag.
    `_plateau_sets` passes down the plateau family's vertex sets from a
    caller that has built them (is_two_generated), so they are built once.
    """
    g.require_connected()
    beta = len(g.edges) - len(g.vertices) + 1
    valences = {v: g.valence(v) for v in g.vertices}
    terminals = sorted((v for v, d in valences.items() if d == 1), key=id_key)
    if not g.edges:
        return Shape("other")
    if beta == 0:
        if len(terminals) == 2 and all(d <= 2 for d in valences.values()):
            start = terminals[0]
            verts, path = _walk_path(g, start, lambda v: valences[v] == 1 and v != start)
            q = tuple(g.label(oe) for oe in path)
            r = tuple(g.colabel(oe) for oe in path)
            return Shape("segment", seg_vertices=tuple(verts), seg_edges=tuple(path), q=q, r=r)
        return Shape("other")
    if beta != 1:
        return Shape("other")
    if all(d == 2 for d in valences.values()):
        base, meets_all = _circle_base(g, _plateau_sets)
        cyc = _cycle_from(g, base)
        verts = [base] + [g.terminus(oe) for oe in cyc[:-1]]
        x = tuple(g.label(oe) for oe in cyc)
        y = tuple(g.colabel(oe) for oe in cyc)
        return Shape(
            "circle",
            circ_vertices=tuple(verts),
            circ_edges=tuple(cyc),
            x=x,
            y=y,
            base_meets_all_plateaus=meets_all,
        )
    tri = sorted((v for v, d in valences.items() if d == 3), key=id_key)
    if len(terminals) == 1 and len(tri) == 1 and all(d in (1, 2, 3) for d in valences.values()):
        w0 = tri[0]
        verts, path = _walk_path(g, terminals[0], lambda v: v == w0)
        cyc = _cycle_from(g, w0, skip=path[-1].edge)
        if cyc is None:
            return Shape("other")
        q = tuple(g.label(oe) for oe in path)
        r = tuple(g.colabel(oe) for oe in path)
        cverts = [w0] + [g.terminus(oe) for oe in cyc[:-1]]
        x = tuple(g.label(oe) for oe in cyc)
        y = tuple(g.colabel(oe) for oe in cyc)
        return Shape(
            "lollipop",
            seg_vertices=tuple(verts),
            seg_edges=tuple(path),
            q=q,
            r=r,
            circ_vertices=tuple(cverts),
            circ_edges=tuple(cyc),
            x=x,
            y=y,
        )
    return Shape("other")


def _circle_base(g: LabelledGraph, plateau_sets) -> tuple[str, bool]:
    from .plateaus import plateau_family

    meeting = set(g.vertices).intersection(*(plateau_sets or [pl.vertices for pl in plateau_family(g)]))
    if meeting:
        return sorted(meeting, key=id_key)[0], True
    return g.sorted_vertices()[0], False


def qrxy(shape: Shape) -> QRXY:
    """The products Q, R, X, Y of Definition-style label bookkeeping."""
    if shape.kind == "other":
        raise ShapeError("QRXY undefined for shape 'other'")
    Q = R = 1
    for v in shape.q:
        Q *= v
    for v in shape.r:
        R *= v
    if shape.kind == "segment":
        return QRXY(Q, R, None, None)
    X = Y = 1
    for v in shape.x:
        X *= v
    for v in shape.y:
        Y *= v
    return QRXY(Q, R, X, Y)
