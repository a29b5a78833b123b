"""Labelled graphs: the representation of a GBS group.

A labelled graph is a finite graph whose oriented edges carry nonzero
integer labels.  Each non-oriented edge is stored once, as a name with an
endpoint pair and a label pair; the oriented edge (name, end) has origin
``endpoints[end]`` and label ``labels[end]``.  Loops are allowed (equal
endpoints, two labels).

Graph values are immutable by convention.  Each move kind has one body, a
method of the working copy `_Work` that edits it in place and returns a
replayable MoveRecord.  `move(g, kind, *params)` runs one on a fresh copy
and builds one new graph; `reduce_graph`,
`canonicalize_signs` and `replay` (a whole certificate trace) run many on one
indexed copy and build their result once.  The boundary constructors
(`LabelledGraph(...)`, `from_json`, `graph_from_edges`, `parse_graph`) check
every edge and that the graph is connected, so every graph is; a move's
result (`_Work.graph`) is not re-checked, as the move has checked its
parameters and keeps a connected graph connected.  No query result is cached
on a graph (the incidence index `_incidence` is its only lazily built field,
built by the first ordered query, `edges_at`; the constructor's connectivity
search, which needs no order, and `reduce_graph` never build it); each public
entry point computes an invariant once and passes it down.  The shape walker
reads each edge row once and builds no `OrientedEdge` of its own: it returns
the index's."""

from dataclasses import dataclass
from itertools import count
from math import prod
from typing import Iterable

from .arith import coprime_base, gcd
from .bs_arith import _require_nonzero
from .errors import (
    DisconnectedGraphError,
    InputError,
    MoveError,
    ShapeError,
)


def id_key(name: str):
    """Deterministic ordering for vertex/edge names: v2 before v10."""
    return (len(name), name)


@dataclass(slots=True, unsafe_hash=True, order=True)
class OrientedEdge:
    edge: str
    end: int


@dataclass(slots=True, unsafe_hash=True)
class EdgeData:
    endpoints: tuple[str, str]
    labels: tuple[int, int]


class LabelledGraph:
    def __init__(self, vertices: Iterable[str], edges: dict[str, EdgeData]):
        self.vertices = vertices = frozenset(vertices)
        self.edges = dict(edges)
        nbrs = {v: [] for v in vertices}
        for name, ed in self.edges.items():
            (a, b), (la, lb) = ed.endpoints, ed.labels
            if not type(la) is type(lb) is int:  # a bool or float is refused, not truncated: labels stay exact
                raise InputError(f"edge {name}: a label must be an integer, not {lb if type(la) is int else la!r}")
            if la == 0 or lb == 0:
                raise InputError(f"edge {name} has a zero label")
            if a not in vertices or b not in vertices:
                raise InputError(f"edge {name} touches unknown vertex {a if a not in vertices else b}")
            nbrs[a].append(b)
            nbrs[b].append(a)
        if not vertices:
            raise InputError("graph needs at least one vertex")
        # one stack search over the edge endpoints: connectivity needs no order
        stack = [next(iter(vertices))]
        seen = set(stack)
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vertices):
            raise DisconnectedGraphError("graph is not connected")
        # vertex -> oriented edges at it, built on first use (graphs never change)
        self._incidence = None

    # -- basic accessors ------------------------------------------------

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

    def betti(self) -> int:
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
        """An object of a list of vertex names and a list of edge objects,
        each with a name of its own, a list of two vertex names and a list of
        two JSON integer labels (InputError otherwise: a repeated edge does not
        replace the first, a string is no list, a missing key no value).  The
        graph refuses an endpoint that is not a vertex, a float or bool label,
        and a disconnected graph."""
        if type(data) is not dict:
            raise InputError(f"a graph must be a JSON object, not {data!r:.60}")
        vertices, listed, edges = data.get("vertices"), data.get("edges"), {}
        for v in vertices if type(vertices) is list else (None,):  # a str would read as one vertex per letter
            if type(v) is not str:
                raise InputError(f"the vertices must be a list of names, not {vertices!r}")
        for e in listed if type(listed) is list else (None,):
            try:
                name, ends, labels = e["name"], e["endpoints"], e["labels"]
            except (KeyError, TypeError):
                raise InputError(f"the edges must be a list of objects with a name, endpoints and labels, "
                                 f"not {listed!r:.60}") from None
            ok = (type(name) is str and name not in edges and type(ends) is type(labels) is list
                  and len(ends) == len(labels) == 2 and type(ends[0]) is type(ends[1]) is str)
            if not ok:
                raise InputError(f"edge {name!r} must have a string name no other edge has, two vertex names as "
                                 f"endpoints and two labels; it has {ends!r}, {labels!r}")
            edges[name] = EdgeData(tuple(ends), tuple(labels))
        return cls(vertices, edges)

    def to_text(self) -> str:
        lines = [f"vertex {v}" for v in self.sorted_vertices()]
        for n in self.sorted_edges():
            ed = self.edges[n]
            lines.append(
                f"edge {n} {ed.endpoints[0]} {ed.endpoints[1]} {ed.labels[0]} {ed.labels[1]}"
            )
        return "\n".join(lines) + "\n"

    def fresh_vertex(self, stem: str = "u") -> str:  # the first unused name of stem0, stem1, ...
        return next(f"{stem}{i}" for i in count() if f"{stem}{i}" not in self.vertices)

    def fresh_edge(self, stem: str = "x") -> str:
        return next(f"{stem}{i}" for i in count() if f"{stem}{i}" not in self.edges)


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
        edges[name] = EdgeData((v, w), (lv, lw))
    return LabelledGraph(vertices, edges)


def bs_graph(m: int, n: int) -> LabelledGraph:
    """The one-loop graph of BS(m, n): t a^m t^-1 = a^n."""
    _require_nonzero(m, n)
    return graph_from_edges([("e0", "v0", "v0", m, n)])


def _segment_circle(q_r: list[int], x_y: list[int]) -> LabelledGraph:
    """Edges s<i> from v<i> to v<i+1> (the last to w0 if a circle follows), then c<j> from w<j> to w<(j+1) mod ell>."""
    k, ell = len(q_r) // 2, len(x_y) // 2
    edges = []
    for i in range(k):
        end = f"v{i+1}" if i < k - 1 or not ell else "w0"
        edges.append((f"s{i}", f"v{i}", end, q_r[2 * i], q_r[2 * i + 1]))
    for j in range(ell):
        edges.append((f"c{j}", f"w{j}", f"w{(j + 1) % ell}", x_y[2 * j], x_y[2 * j + 1]))
    return graph_from_edges(edges)


def segment_graph(q_r: list[int]) -> LabelledGraph:
    """segment q0 r1 q1 r2 ... : k edges, labels q_i near v_i, r_{i+1} near v_{i+1}."""
    if len(q_r) < 2 or len(q_r) % 2:
        raise InputError("segment needs labels q0 r1 [q1 r2 ...]")
    return _segment_circle(q_r, [])


def circle_graph(x_y: list[int]) -> LabelledGraph:
    """circle x0 y1 x1 y2 ... : cycle of ell edges, x_j near w_j, y_{j+1} near w_{j+1}."""
    if len(x_y) < 2 or len(x_y) % 2:
        raise InputError("circle needs labels x0 y1 [x1 y2 ...]")
    return _segment_circle([], x_y)


def lollipop_graph(q_r: list[int], x_y: list[int]) -> LabelledGraph:
    """Segment labels q0 r1 ... attached at w0, circle labels x0 y1 ...."""
    if len(q_r) < 2 or len(q_r) % 2 or len(x_y) < 2 or len(x_y) % 2:
        raise InputError("lollipop needs segment labels and circle labels")
    return _segment_circle(q_r, x_y)


def loop_labels(g: LabelledGraph) -> tuple[int, int] | None:
    """The label pair of a graph with one vertex and one edge, None for any other graph."""
    if len(g.edges) == 1 and len(g.vertices) == 1:
        (ed,) = g.edges.values()
        return ed.labels
    return None


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


@dataclass(slots=True, unsafe_hash=True)
class MoveRecord:
    kind: str
    params: tuple

    def to_json(self):
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_json(cls, data):
        return cls(data["kind"], _tuples(data["params"]))


def _tuples(items) -> tuple:  # JSON lists as tuples, at every depth
    return tuple([_tuples(x) if type(x) is list else x for x in items])


def _exact(x, what: str) -> int:
    """x when it is an int (a bool or float is refused: labels stay exact)."""
    if type(x) is not int:
        raise MoveError(f"{what} must be an integer, not {x!r}")
    return x


def _end(x, what: str = "end") -> int:
    if type(x) is not int or x not in (0, 1):
        raise MoveError(f"{what} must be 0 or 1, not {x!r}")
    return x


class _Work:
    """A working copy of a graph that the one body of each move kind edits in
    place.  A vertex -> edge-name index (keys: the vertex set) finds the edges
    at a vertex when `indexed`, a scan (cheaper for one move) when not.  A
    move takes its record's parameters (the outputs, `*_`, are compared by
    `replay`), checks them (MoveError before any edit), returns its record.
    Its edits keep every label a nonzero integer and every endpoint a vertex
    (and leave at least one vertex), and keep the graph connected: a collapse
    or contraction merges the two ends of a non-loop edge, an expansion
    attaches its new vertex by its new edge, and a sign change or
    displacement changes only labels.  So `graph` needs no check."""

    __slots__ = ("edges", "index", "vertices")

    def __init__(self, g: LabelledGraph, indexed: bool = False):
        self.edges = dict(g.edges)
        self.index, self.vertices = None, g.vertices
        if indexed:
            self.index = self.vertices = index = {v: set() for v in g.vertices}
            for name, ed in self.edges.items():
                a, b = ed.endpoints
                index[a].add(name)
                index[b].add(name)

    def graph(self) -> LabelledGraph:
        """The copy as a graph, not re-checked (see above); the copy is not edited after."""
        g = LabelledGraph.__new__(LabelledGraph)
        g.vertices, g.edges, g._incidence = frozenset(self.vertices), self.edges, None
        return g

    def _vertex(self, v) -> str:
        if type(v) is not str or v not in self.vertices:
            raise MoveError(f"unknown vertex {v}")
        return v

    def _edge(self, name, move: str | None = None) -> EdgeData:
        if type(name) is not str or name not in self.edges:
            raise MoveError(f"unknown edge {name}")
        ed = self.edges[name]
        if move and ed.endpoints[0] == ed.endpoints[1]:
            raise MoveError(f"cannot {move} loop {name}")
        return ed

    def _drop(self, name) -> EdgeData:
        ed = self.edges.pop(name)
        if self.index is not None:
            for v in ed.endpoints:
                self.index[v].discard(name)
        return ed

    def _merge(self, u: str, mult: int, image: str):
        """Re-root every end at u at `image`, its label multiplied by mult."""
        edges, index = self.edges, self.index
        names = [n for n, ed in edges.items() if u in ed.endpoints] if index is None else index[u]
        for n in names:
            ed = edges[n]
            (a, b), (la, lb) = ed.endpoints, ed.labels
            if a == u:
                a, la = image, la * mult
            if b == u:
                b, lb = image, lb * mult
            edges[n] = EdgeData((a, b), (la, lb))
        if image != u:
            if index is None:
                self.vertices = self.vertices - {u}
            else:
                index[image] |= index.pop(u)

    def sign_change(self, what, name) -> MoveRecord:
        """Negate all labels near a vertex, or both labels of an edge."""
        if what == "vertex":
            self._merge(self._vertex(name), -1, name)
        elif what == "edge":
            ed = self._edge(name)
            self.edges[name] = EdgeData(ed.endpoints, (-ed.labels[0], -ed.labels[1]))
        else:
            raise MoveError(f"a sign change is at a vertex or an edge, not {what!r}")
        return MoveRecord("sign-change", (what, name))

    def collapse(self, edge, end=None, *_) -> MoveRecord:
        """Collapse a non-loop edge with a +-1 label at `end` (the first unit
        end if None): that end's vertex goes, and every other label near it
        is multiplied by (unit label) * (far label)."""
        ed = self._edge(edge, "collapse")
        end = (0 if abs(ed.labels[0]) == 1 else 1) if end is None else _end(end)
        if abs(ed.labels[end]) != 1:
            raise MoveError(f"label of {edge} at end {end} is not +-1")
        return self._collapse(edge, end)

    def _collapse(self, edge: str, end: int) -> MoveRecord:
        """The collapse body, for a caller that has checked its parameters."""
        ed = self._drop(edge)
        removed, survivor = ed.endpoints[end], ed.endpoints[1 - end]
        mult = ed.labels[end] * ed.labels[1 - end]
        self._merge(removed, mult, survivor)
        return MoveRecord("collapse", (edge, end, removed, survivor, mult))

    def expansion(self, vertex, moved, label, sgn, new_vertex, new_edge) -> MoveRecord:
        """Inverse of collapse: split new_vertex off `vertex` by new_edge (label
        near `vertex`, sgn near new_vertex), re-rooting the (edge, end) pairs
        `moved` at new_vertex, their labels divided by sgn*label."""
        self._vertex(vertex)
        if _exact(label, "expansion label") == 0 or _exact(sgn, "expansion sign") not in (1, -1):
            raise MoveError("expansion needs a nonzero label and sign +-1")
        if type(moved) is not tuple or any(type(m) is not tuple or len(m) != 2 for m in moved):
            raise MoveError(f"expansion moves (edge, end) pairs, not {moved!r}")
        div = sgn * label
        for e, k in moved:
            ed = self._edge(e)
            if ed.endpoints[_end(k)] != vertex:
                raise MoveError(f"{OrientedEdge(e, k)} does not start at {vertex}")
            if ed.labels[k] % div != 0:
                raise MoveError(f"label of {OrientedEdge(e, k)} not divisible by {div}")
        edges = self.edges
        for new, used in ((new_vertex, self.vertices), (new_edge, edges)):
            if type(new) is not str or not new or new in used:
                raise MoveError(f"a new vertex or edge needs a non-empty unused name, not {new!r}")
        moved = tuple(sorted(set(moved)))
        for e, k in moved:
            ed = edges[e]
            endpoints, labels = list(ed.endpoints), list(ed.labels)
            endpoints[k] = new_vertex
            labels[k] //= div
            edges[e] = EdgeData(tuple(endpoints), tuple(labels))
        edges[new_edge] = EdgeData((vertex, new_vertex), (label, sgn))
        if self.index is None:
            self.vertices = self.vertices | {new_vertex}
        else:
            self.index[new_vertex] = {e for e, _ in moved} | {new_edge}
            self.index[vertex] -= {e for e, _ in moved if vertex not in edges[e].endpoints}
            self.index[vertex].add(new_edge)
        return MoveRecord("expansion", (vertex, moved, label, sgn, new_vertex, new_edge))

    def contraction(self, edge, survivor, *_) -> MoveRecord:
        """Contract a non-loop edge vw with labels q, r: labels near v are
        multiplied by r/(q^r), labels near w by q/(q^r), and `survivor`
        absorbs the other end.  An epimorphism (proper unless q or r is a unit)."""
        ed = self._edge(edge, "contract")
        if survivor not in ed.endpoints:
            raise MoveError(f"the survivor of contracting {edge} is one of its ends, not {survivor!r}")
        self._drop(edge)
        q, r = ed.labels
        d = gcd(q, r)
        end = ed.endpoints.index(survivor)
        removed = ed.endpoints[1 - end]
        # the survivor first, while no end of `removed` has moved onto it
        self._merge(survivor, (r, q)[end] // d, survivor)
        self._merge(removed, (q, r)[end] // d, survivor)
        return MoveRecord("contraction", (edge, survivor, removed, q, r, d))

    def displacement(self, edge, r, divided_end) -> MoveRecord:
        ed = self._edge(edge, "displace across")
        rs = ed.labels[_end(divided_end, "divided end")]
        q = ed.labels[1 - divided_end]
        if _exact(r, "displacement factor") == 0 or rs % r != 0:
            raise MoveError(f"{r} does not divide the label of {OrientedEdge(edge, divided_end)}")
        if gcd(q, r) != 1:
            raise MoveError(f"factor {r} not coprime to the far label of {edge}")
        v = ed.endpoints[1 - divided_end]
        self._merge(v, r, v)
        self.edges[edge] = EdgeData(ed.endpoints, (rs // r, q) if divided_end == 0 else (q, rs // r))
        return MoveRecord("displacement", (edge, r, divided_end))


# each record kind's number of inputs, number of parameters and move body
_MOVES = {"sign-change": (2, 2, _Work.sign_change), "collapse": (1, 5, _Work.collapse),
          "expansion": (6, 6, _Work.expansion), "contraction": (2, 6, _Work.contraction),
          "displacement": (3, 3, _Work.displacement)}


def move(g: LabelledGraph, kind: str, *params):
    """(new graph, full MoveRecord) of one move of `kind` on g.  `params` are
    the record's inputs; its outputs may be left off."""
    spec = _MOVES.get(kind) if type(kind) is str else None
    if spec is None or not spec[0] <= len(params) <= spec[1]:
        raise MoveError(f"a {kind} move takes at least {spec[0]} and at most {spec[1]} parameters, not {len(params)}"
                        if spec else f"unknown move kind {kind!r}")
    work = _Work(g)
    rec = spec[2](work, *params)
    return work.graph(), rec


def replay(g: LabelledGraph, records) -> LabelledGraph:
    """The graph a sequence of MoveRecords takes g to, built once (used to
    verify certificate traces).  Records are read from certificate JSON, so
    a malformed one, or one its move would not make, raises MoveError; the
    checks read the record, never every edge."""
    if not records:
        return g
    work = _Work(g, indexed=len(records) > 1)
    for rec in records:
        kind, params = rec.kind, rec.params
        _, arity, move = _MOVES.get(kind, (None, None, None)) if type(kind) is str else (None, None, None)
        if type(params) is not tuple or arity != len(params):
            raise MoveError(f"malformed move record {kind!r} {params!r}")
        if move(work, *params).params != params:
            raise MoveError(f"{kind} replay mismatch: {params!r}")
    return work.graph()


def apply_move(g: LabelledGraph, rec: MoveRecord) -> LabelledGraph:
    """Replay one MoveRecord."""
    return replay(g, (rec,))


def reduce_graph(g: LabelledGraph, protect: str | None = None):
    """Collapse unit-label non-loop edges until none remain (reduced graph).

    Deterministic: lowest edge id first, end 0 before end 1.  With
    `protect`, collapses removing that vertex are skipped (the result may
    then fail to be reduced).  A collapse only multiplies labels by nonzero
    integers and merges two vertices, so an edge passed over never becomes
    collapsible later: one pass in edge id order makes the same moves as
    rescanning after every collapse.  The collapses edit one indexed working
    copy; the result is built once."""
    work = _Work(g, indexed=True)
    edges = work.edges
    records = []
    for name in g.sorted_edges():
        ed = edges[name]
        for end in (0, 1):
            removed = ed.endpoints[end]
            if abs(ed.labels[end]) == 1 and removed != ed.endpoints[1 - end] and removed != protect:
                records.append(work._collapse(name, end))
                break
    return (work.graph() if records else g), records


def canonicalize_signs(g: LabelledGraph):
    """Admissible sign changes making all but at most beta(G) labels positive.

    Tree labels become positive; each non-tree edge keeps at most one
    negative label, placed at end 1.  Deterministic.  The moves edit one
    indexed working copy; the result is built once.  A graph with no
    negative label needs no move: it is returned as it is."""
    if min(g.labels(), default=1) > 0:
        return g, []
    order = _bfs_tree(g)
    tree = {oe.edge for oe in order}
    work = _Work(g, indexed=True)
    edges = work.edges
    records = []
    for oe in order:
        if edges[oe.edge].labels[oe.end] < 0:
            records.append(work.sign_change("edge", oe.edge))
        if edges[oe.edge].labels[1 - oe.end] < 0:
            records.append(work.sign_change("vertex", g.terminus(oe)))
    for name in g.sorted_edges():
        if name not in tree and edges[name].labels[0] < 0:
            records.append(work.sign_change("edge", name))
    return (work.graph() if records else g), records


def _bfs_tree(g: LabelledGraph) -> list[OrientedEdge]:
    """The edges of the deterministic BFS spanning tree, each oriented away
    from the lowest vertex, in the order the search meets them."""
    root = min(g.vertices, key=id_key)
    seen = {root}
    order = []
    queue = [root]
    for v in queue:  # the list grows as the search meets vertices: a FIFO without pops
        for oe in g.edges_at(v):
            w = g.edges[oe.edge].endpoints[1 - oe.end]
            if w not in seen:
                seen.add(w)
                order.append(oe)
                queue.append(w)
    return order


def spanning_tree(g: LabelledGraph) -> frozenset[str]:
    """Deterministic BFS spanning tree (set of edge names)."""
    return frozenset([oe.edge for oe in _bfs_tree(g)])


# -- shape classification ---------------------------------------------------


class _product:
    """A label product of a Shape (Q from q, ...), computed on first read and
    kept in the instance __dict__, which later reads find first (a non-data
    descriptor; Python 3.11's cached_property takes a lock on each first read)."""

    def __init__(self, labels: str):
        self.labels = labels

    def __get__(self, shape, owner=None):
        if shape is None:
            return self
        if shape.kind == "other":
            raise ShapeError("Q, R, X and Y are undefined for shape 'other'")
        value = None if shape.kind == "segment" and self.labels in "xy" else prod(getattr(shape, self.labels))
        shape.__dict__[self.labels.upper()] = value
        return value


@dataclass(unsafe_hash=True)
class Shape:
    """Homeomorphism type of a connected graph, with labels read off in the
    standard numbering.  `kind` is segment / circle / lollipop / other.  The
    label products Q, R, X, Y are cached, not fields: repr, == and hash read the labels."""

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

    Q = _product("q")
    R = _product("r")
    X = _product("x")
    Y = _product("y")


def _walk(g: LabelledGraph, first: OrientedEdge, stop):
    """The walk along `first`: its oriented edges, its vertices from its first
    origin on, its near and far labels.  At each vertex it leaves by the first
    edge end, in `edges_at` order, of an edge other than the one it came by,
    and it ends at the first vertex `stop` accepts.  Every vertex it passes
    has valence 2, so it arrives by a loop only where it stops."""
    oe, path, verts, near, far = first, [], [], [], []
    while True:
        ed, name, end = g.edges[oe.edge], oe.edge, oe.end
        path.append(oe)
        verts.append(ed.endpoints[end])
        near.append(ed.labels[end])
        far.append(ed.labels[1 - end])
        if stop(cur := ed.endpoints[1 - end]):
            return tuple(path), (*verts, cur), tuple(near), tuple(far)
        for oe in g.edges_at(cur):
            if oe.edge != name:
                break


def classify_shape(g: LabelledGraph, *, _plateau_sets=None) -> Shape:
    """Segment / circle / lollipop recognition per the standard numbering.

    For circles the base w_0 is a vertex meeting every plateau when one
    exists (lowest id wins); otherwise the lowest id with a recording flag.
    `_plateau_sets` passes down the plateau family's vertex sets from a
    caller that has built them (is_two_generated), so they are built once.
    Every vertex a walk passes before its stop has valence 2, so it never
    branches.
    """
    beta = g.betti()
    valences = {v: g.valence(v) for v in g.vertices}
    terminals = sorted((v for v, d in valences.items() if d == 1), key=id_key)
    if beta == 0:
        if len(terminals) == 2 and all(d <= 2 for d in valences.values()):
            path, verts, q, r = _walk(g, g.edges_at(terminals[0])[0], lambda v: valences[v] == 1)
            return Shape("segment", seg_vertices=verts, seg_edges=path, q=q, r=r)
        return Shape("other")
    if beta != 1:
        return Shape("other")
    if all(d == 2 for d in valences.values()):
        base, meets_all = _circle_base(g, _plateau_sets)
        cyc, verts, x, y = _walk(g, g.edges_at(base)[0], lambda v: v == base)
        return Shape("circle", circ_vertices=verts[:-1], circ_edges=cyc, x=x, y=y,
                     base_meets_all_plateaus=meets_all)
    tri = [v for v, d in valences.items() if d == 3]
    if len(terminals) == 1 and len(tri) == 1 and all(d in (1, 2, 3) for d in valences.values()):
        w0 = tri[0]
        at_w0 = lambda v: v == w0
        path, verts, q, r = _walk(g, g.edges_at(terminals[0])[0], at_w0)
        cyc, cverts, x, y = _walk(g, next(oe for oe in g.edges_at(w0) if oe.edge != path[-1].edge), at_w0)
        return Shape("lollipop", seg_vertices=verts, seg_edges=path, q=q, r=r,
                     circ_vertices=cverts[:-1], circ_edges=cyc, x=x, y=y)
    return Shape("other")


def _circle_base(g: LabelledGraph, plateau_sets) -> tuple[str, bool]:
    """The lowest vertex meeting every plateau (True), else the lowest vertex
    (False); without `plateau_sets`, the search stops once no vertex meets all."""
    from .plateaus import _components

    meeting = set(g.vertices)
    for s in plateau_sets or _components(g, coprime_base(g.labels())):
        meeting &= s
        if not meeting:
            return min(g.vertices, key=id_key), False
    return min(meeting, key=id_key), True
