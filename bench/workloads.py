"""The benchmark's three workloads.

Each workload builds its inputs from the seed once (the set-up) and then
runs timed passes.  A pass has three phases, timed per operation:

* decide: the workload's deciders, one call per input;
* build: certificate construction, including compact-JSON serialization;
* verify: load each certificate back from its JSON and re-check it, as
  `gbs verify` does.

Every answer is checked.  Cheap independent checks run inside the pass
(outside the timed calls); everything else goes into per-kind answer
digests compared with the digests recorded in `expected.json` at the
commit that introduced the benchmark.  The digests cover answers only
(decisions, which groups each certificate relates, verification
outcomes), never certificate encodings, so a change of format does not
count as a wrong answer.

All calls into `gbs` go through module attributes at call time, so the
traced mode's wrappers see them.
"""

import functools
import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import gbs
from gbs.words import letters_concat, letters_inverse

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
FAILED = object()


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class Pass:
    """Latencies, answers and failures of one pass over a workload."""

    def __init__(self, tracer=None, probe=None):
        # one entry per operation, in the workload's fixed order; None if it failed
        self.lat = {"decide": [], "build": [], "verify": []}
        # per operation, how many speed probes had run when it started
        self.probed = {"decide": [], "build": [], "verify": []}
        self.answers: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cert_bytes = 0
        self.tracer = tracer
        self.probe = probe

    def call(self, phase, fn, *args):
        """Time one operation; an exception counts it as failed."""
        if self.tracer is not None:
            self.tracer.current_op = self.attempted
        if self.probe is not None:
            self.probed[phase].append(self.probe.tick())
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a crash is a failed operation, not a stop
            self.lat[phase].append(None)
            self.fail(f"{phase} {fn.__name__}{args!r:.80}: {type(exc).__name__}: {exc}")
            return FAILED
        self.lat[phase].append(perf_counter() - t0)
        return result

    def check(self, ok, what: str):
        if not ok:
            self.fail(f"wrong answer: {what}")

    def fail(self, message: str, count: int = 1):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def answer(self, kind: str, key, value):
        self.answers.setdefault(kind, []).append(f"{key}={value}")

    def finish(self, expected: dict | None = None):
        """Replace the answers by their per-kind digests, so that a run's
        memory does not grow with its number of passes, and count every
        answer of a kind whose digest differs from `expected` as wrong."""
        counts = {kind: len(rows) for kind, rows in self.answers.items()}
        self.digests = {
            kind: hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()
            for kind, rows in sorted(self.answers.items())
        }
        self.answers = {}
        if expected is None:
            return
        for kind in sorted(set(expected) | set(self.digests)):
            if self.digests.get(kind) != expected.get(kind):
                self.fail(f"answer digest mismatch for {kind!r}", count=max(1, counts.get(kind, 0)))


# -- embed_grid ----------------------------------------------------------------


def _build_embedding(p):
    return dumps(gbs.embed_bs_construct(*p).to_json())


def _verify_embedding(text):
    cert = gbs.EmbeddingCertificate.from_json(json.loads(text))
    return cert, gbs.verify_embedding_certificate(cert)


class EmbedGrid:
    """Every BS(r,s) < BS(m,n) decision on the nonzero box |.| <= B, then a
    certificate for each yes, built and verified (acceptance criterion 3)."""

    name = "embed_grid"
    BOX = {"full": 5, "tiny": 2}

    def __init__(self, seed: int, size: str):
        self.size = size
        vals = [i for i in range(-self.BOX[size], self.BOX[size] + 1) if i]
        self.points = [
            (r, s, m, n)
            for r in vals
            for s in vals
            if not (abs(r) == 1 and abs(s) == 1)
            for m in vals
            for n in vals
        ]
        random.Random(seed).shuffle(self.points)

    def run(self, rec: Pass):
        yes = []
        for p in self.points:
            d = rec.call("decide", gbs.embeds_bs, *p)
            if d is FAILED:
                continue
            rec.answer("decide", p, f"{bool(d)}|{d.clause}")
            if d:
                yes.append(p)
        want = EXPECTED[self.name][self.size]["yes"]
        if len(yes) != want:
            rec.fail(f"wrong answer: {len(yes)} embeddings, expected {want}", abs(len(yes) - want))
        built = []
        for p in yes:
            text = rec.call("build", _build_embedding, p)
            if text is not FAILED:
                rec.cert_bytes += len(text)
                built.append((p, text))
        for (r, s, m, n), text in built:
            got = rec.call("verify", _verify_embedding, text)
            if got is FAILED:
                continue
            cert, (ok, violations) = got
            rec.check(
                ok and tuple(cert.claimed) == (r, s) and cert.map.target == gbs.bs_graph(m, n),
                f"certificate BS({r},{s}) < BS({m},{n}): {violations[:1]}",
            )


# -- quot_certs ----------------------------------------------------------------


def _prime_set(n):
    """Prime divisors of |n| by plain trial division (independent of gbs)."""
    n, d, out = abs(n), 2, set()
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _lcm(a, b):
    return abs(a * b) // _gcd(a, b)


def _graph_key(g) -> str:
    return g.to_text().replace("\n", ";")


def build_and_dump(builder, *args):
    """Run a certificate builder; return its certificates and their JSON."""
    certs = builder(*args)
    return certs, [dumps(c.to_json()) for c in certs]


def circle_certs(g):
    return [gbs.minimal_bs_epi(g)]


def non_hopf_certs(m, n):
    return [gbs.non_hopf_endo(m, n).cert]


def segment_certs(g, m):
    return [gbs.bs_source_epi(g, m, m)]


def chain_certs(n):
    member = gbs.descending_chain(n)
    return [member.from_bs_18_36, member.to_next, member.to_bs_9_18]


def family_certs(m, n, count):
    return [member.cert for member in gbs.infinite_family(m, n, count)]


def verify_hom(text):
    cert = gbs.HomCertificate.from_json(json.loads(text))
    hom = gbs.check_hom(cert)
    epi = hom and cert.witnesses is not None and gbs.check_epi(cert)
    return hom, epi


class QuotCerts:
    """Quotient-direction deciders and homomorphism certificates: the only
    workload dominated by the letter-word algebra and the witness engine."""

    name = "quot_certs"
    SIZES = {
        "full": {"grid": 12, "circle": 7, "segment": 30, "chain": 6,
                 "families": ((4, 6, 6), (6, 10, 4), (4, 12, 5), (6, 6, 8))},
        "tiny": {"grid": 4, "circle": 2, "segment": 8, "chain": 2,
                 "families": ((4, 6, 2), (6, 6, 2))},
    }

    def __init__(self, seed: int, size: str):
        self.size = size
        cfg = self.SIZES[size]
        vals = [i for i in range(-cfg["grid"], cfg["grid"] + 1) if i]
        pairs = [(m, n) for m in vals for n in vals]
        self.circles = []  # (alpha, beta, gamma, reduced graph)
        for alpha in range(1, cfg["circle"] + 1):
            for beta in range(1, cfg["circle"] + 1):
                for gamma in range(1, cfg["circle"] + 1, 2):
                    g = gbs.graphs.graph_from_edges(
                        [("e0", "w0", "w1", 2 * beta, 2), ("e1", "w1", "w0", gamma, 2 * alpha)]
                    )
                    self.circles.append((alpha, beta, gamma, gbs.reduce_graph(g)[0]))
        self.segment = gbs.segment_graph([2, 3])
        seg_range = range(1, cfg["segment"] + 1)
        self.decisions = (
            [("hopfian", p) for p in pairs]
            + [("finite_quotients", p) for p in pairs]
            + [("epi_equivalent", i) for i in range(len(self.circles))]
            + [("bs_quotient", (m, m)) for m in seg_range]
            + [("bs_quotient", (m, m + 1)) for m in seg_range]
        )
        self.builds = (
            [("circle", i) for i, c in enumerate(self.circles) if _gcd(c[2], c[0]) == 1]
            + [("non_hopf", p) for p in pairs if not self._hopfian(*p)]
            + [("segment", m) for m in seg_range if m % 2 == 0 or m % 3 == 0]
            + [("chain", n) for n in range(1, cfg["chain"] + 1)]
            + [("family", f) for f in cfg["families"]]
        )
        rng = random.Random(seed)
        rng.shuffle(self.decisions)
        rng.shuffle(self.builds)

    @staticmethod
    def _hopfian(m, n):
        return abs(m) == 1 or abs(n) == 1 or _prime_set(m) == _prime_set(n)

    def _decide(self, rec, kind, arg):
        if kind == "hopfian":
            got = rec.call("decide", gbs.is_hopfian_bs, *arg)
            if got is not FAILED:
                rec.check(got == self._hopfian(*arg), f"is_hopfian_bs{arg}")
        elif kind == "finite_quotients":
            got = rec.call("decide", gbs.finitely_many_quotients, *arg)
            if got is not FAILED:
                got = bool(got)
        elif kind == "epi_equivalent":
            alpha, beta, gamma, g = self.circles[arg]
            got = rec.call("decide", gbs.epi_equivalent_bs, g)
            if got is not FAILED:
                rec.check((got is not None) == (_gcd(gamma, alpha) == 1), f"epi_equivalent_bs{arg}")
            arg = (alpha, beta, gamma)
        else:
            m, n = arg
            got = rec.call("decide", gbs.is_quotient_of_bs, self.segment, m, n)
            if got is not FAILED:
                rec.check(got == (m == n and (m % 2 == 0 or m % 3 == 0)), f"is_quotient_of_bs{arg}")
        if got is not FAILED:
            rec.answer(f"decide:{kind}", arg, got)

    def _build(self, rec, kind, arg):
        if kind == "circle":
            args = (circle_certs, self.circles[arg][3])
            arg = self.circles[arg][:3]
        elif kind == "non_hopf":
            args = (non_hopf_certs, *arg)
        elif kind == "segment":
            args = (segment_certs, self.segment, arg)
        elif kind == "chain":
            args = (chain_certs, arg)
        else:
            args = (family_certs, *arg)
        got = rec.call("build", build_and_dump, *args)
        if got is FAILED:
            return []
        certs, texts = got
        if kind == "family":  # each member is the target of its certificate
            members = {_graph_key(c.target.graph) for c in certs}
            rec.check(len(members) == len(certs) == arg[2], f"infinite_family{arg}: distinct members")
        rec.answer(
            f"build:{kind}",
            arg,
            [(_graph_key(c.source.graph), _graph_key(c.target.graph)) for c in certs],
        )
        rec.cert_bytes += sum(map(len, texts))
        return [((kind, arg, i), text) for i, text in enumerate(texts)]

    def run(self, rec: Pass):
        for kind, arg in self.decisions:
            self._decide(rec, kind, arg)
        texts = []
        for kind, arg in self.builds:
            texts.extend(self._build(rec, kind, arg))
        for key, text in texts:
            got = rec.call("verify", verify_hom, text)
            if got is not FAILED:
                rec.check(got == (True, True), f"certificate {key}: hom, epi = {got}")
                rec.answer("verify", key, got)


# -- graph_scale ---------------------------------------------------------------


def _segment_labels(graph_json) -> list[tuple[int, int]]:
    """Label pairs of a segment read along the walk from its lowest-named
    end (independent of gbs)."""
    edges = graph_json["edges"]
    if not edges:
        return []
    at: dict[str, list] = {}
    for e in edges:
        a, b = e["endpoints"]
        at.setdefault(a, []).append((e, 0))
        at.setdefault(b, []).append((e, 1))
    ends = sorted(v for v, inc in at.items() if len(inc) == 1)
    if len(ends) != 2 or any(len(inc) > 2 for inc in at.values()):
        return [("not a segment",)]
    out, cur, prev = [], ends[0], None
    while True:
        step = [(e, k) for e, k in at[cur] if e is not prev]
        if not step:
            return out
        e, k = step[0]
        out.append((e["labels"][k], e["labels"][1 - k]))
        cur, prev = e["endpoints"][1 - k], e


def _unit_segment(rng, units: int, rest: int):
    """Segment labels with `units` unit edges (1, c) among `rest` reduced
    edges, and the reduced segment's label pairs worked out by hand:
    collapsing (1, c) multiplies the nearest reduced edge on its left by c
    at its right end; unit edges left of every reduced edge vanish."""
    kinds = ["unit"] * units + ["rest"] * rest
    rng.shuffle(kinds)
    labels, reduced = [], []
    for kind in kinds:
        if kind == "unit":
            c = rng.choice((1, -1, 2, -2, 3))
            labels += [1, c]
            if reduced:
                q, r = reduced[-1]
                reduced[-1] = (q, r * c)
        else:
            q, r = rng.choice((2, 3, 5, -2)), rng.choice((2, 3, 5, -3))
            labels += [q, r]
            reduced.append((q, r))
    return labels, reduced


def _reduce_segment(g):
    red, moves = gbs.reduce_graph(g)
    text = dumps(
        {"source": g.to_json(), "moves": [m.to_json() for m in moves], "reduced": red.to_json()}
    )
    return red, text


def _verify_reduction(text):
    data = json.loads(text)
    cur = gbs.LabelledGraph.from_json(data["source"])
    for move in data["moves"]:
        cur = gbs.graphs.apply_move(cur, gbs.graphs.MoveRecord.from_json(move))
    return cur == gbs.LabelledGraph.from_json(data["reduced"]) and cur.is_reduced()


def _word_query(kind, pres, w1, w2):
    g = pres.graph
    if kind == "trivial":
        return gbs.britton_reduce(g, pres.letters_to_path(w1)).trivial
    if kind == "elliptic":
        return gbs.is_elliptic(g, pres.letters_to_path(w1))
    return gbs.equal(g, pres.letters_to_path(w1), pres.letters_to_path(w2))


class GraphScale:
    """Structural queries on larger graphs: plateau enumeration and rank,
    shape recognition, the smallest BS(n, n) containing the group, Britton
    reduction, and reduction of long segments (the build phase: the move
    trace is the certificate, replayed to verify)."""

    name = "graph_scale"
    SIZES = {  # vertex counts of the shape graphs, unit-edge counts of the segments
        "full": {"shapes": [v for v in range(8, 13) for _ in range(2)], "words": 1000,
                 "units": [u for u in range(12, 32) for _ in range(5)]},
        "tiny": {"shapes": [4, 5], "words": 40, "units": [4, 5, 6]},
    }
    LABELS = (2, 3, 4, 6, 9, 10, 15)

    def __init__(self, seed: int, size: str):
        self.size = size
        cfg = self.SIZES[size]
        fixed = random.Random("graph_scale")  # structural inputs do not vary by seed
        self.shapes = []  # (kind, graph)
        for v in cfg["shapes"]:
            self.shapes.append(
                ("circle", gbs.circle_graph([fixed.choice(self.LABELS) for _ in range(2 * v)]))
            )
            k = v // 2
            self.shapes.append(
                (
                    "lollipop",
                    gbs.lollipop_graph(
                        [fixed.choice(self.LABELS) for _ in range(2 * k)],
                        [fixed.choice(self.LABELS) for _ in range(2 * (v - k))],
                    ),
                )
            )
        # circles with equal labels at each vertex: G < BS(n, n) for n the lcm of the labels
        self.balanced = []  # (graph, n)
        for v in cfg["shapes"]:
            x = [fixed.choice(self.LABELS) for _ in range(v)]
            labels = [x[0]] + [c for c in x[1:] for _ in range(2)] + [x[0]]
            self.balanced.append((gbs.circle_graph(labels), functools.reduce(_lcm, x)))
        self.segments = []  # (graph, expected reduced label pairs)
        for units in cfg["units"]:
            labels, reduced = _unit_segment(fixed, units, max(2, units // 8))
            self.segments.append((gbs.segment_graph(labels), reduced))
        rng = random.Random(seed)
        pool = [gbs.Presentation(g) for _, g in self.shapes]
        self.decisions = [
            ("word", self._query(rng, pool[i % len(pool)], i % 4)) for i in range(cfg["words"])
        ]
        self.decisions += [(op, i) for op in ("shape", "rank") for i in range(len(self.shapes))]
        self.decisions += [("bs_nn", i) for i in range(len(self.balanced))]
        rng.shuffle(self.decisions)
        self.order = list(range(len(self.segments)))
        rng.shuffle(self.order)

    @staticmethod
    def _query(rng, pres, which):
        """A word query whose answer is known by construction."""
        gens = pres.generators()

        def word(length, max_exp):
            out = []
            for _ in range(rng.randint(1, length)):
                kind, name = rng.choice(gens)
                out.append((kind, name, rng.choice([e for e in range(-max_exp, max_exp + 1) if e])))
            return tuple(out)

        conj = word(4, 4)
        rel = rng.choice(pres.relations())
        if rng.random() < 0.5:
            rel = letters_inverse(rel)
        conj_rel = letters_concat(conj, rel, letters_inverse(conj))
        vertex = (("v", rng.choice(sorted(pres.graph.vertices)), rng.choice((-3, -2, -1, 1, 2, 3))),)
        w = word(3, 3)
        if which == 0:
            return "trivial", pres, conj_rel, None, True
        if which == 1:
            return "elliptic", pres, letters_concat(conj, vertex, letters_inverse(conj)), None, True
        if which == 2:
            return "equal", pres, letters_concat(conj_rel, w), w, True
        return "equal", pres, letters_concat(w, vertex), w, False

    def run(self, rec: Pass):
        for op, arg in self.decisions:
            if op == "word":
                kind, pres, w1, w2, want = arg
                got = rec.call("decide", _word_query, kind, pres, w1, w2)
                if got is not FAILED:
                    rec.check(got == want, f"{kind} query on {pres.graph!r:.60}")
                continue
            if op == "bs_nn":
                g, want = self.balanced[arg]
                got = rec.call("decide", gbs.embeds_in_some_bs_nn, g)
                if got is not FAILED:
                    rec.check(got == want, f"embeds_in_some_bs_nn: {got}, expected {want}")
                continue
            want_kind, g = self.shapes[arg]
            if op == "shape":
                got = rec.call("decide", gbs.classify_shape, g)
                if got is not FAILED:
                    rec.check(got.kind == want_kind, f"classify_shape of a {want_kind}: {got.kind}")
                    rec.answer("decide:shape", arg, got.kind)
            else:
                got = rec.call("decide", gbs.mu, g)
                if got is not FAILED:
                    rec.answer("decide:rank", arg, (got.beta, got.mu, got.rank))
        texts = []
        for i in self.order:
            g, want = self.segments[i]
            got = rec.call("build", _reduce_segment, g)
            if got is FAILED:
                continue
            red, text = got
            labels = _segment_labels(red.to_json())
            rec.check(
                labels in (want, [(r, q) for q, r in reversed(want)]),
                f"reduced segment {i}: {labels[:3]} vs {want[:3]}",
            )
            rec.cert_bytes += len(text)
            texts.append((i, text))
        for i, text in texts:
            got = rec.call("verify", _verify_reduction, text)
            if got is not FAILED:
                rec.check(got, f"reduction trace {i} does not replay")


WORKLOADS = {w.name: w for w in (EmbedGrid, QuotCerts, GraphScale)}


def record_digests(size: str) -> dict:
    """Answer digests of one pass of each workload (seed 0), in the layout
    of `expected.json`; used to record that file."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0, size)
        rec = Pass()
        wl.run(rec)
        rec.finish()
        if rec.failed:
            raise RuntimeError(f"{name}: {rec.failed} failed operations: {rec.errors[:3]}")
        entry = {"digests": rec.digests}
        if name == "embed_grid":
            entry["yes"] = len(rec.lat["build"])
        out[name] = entry
    return out
