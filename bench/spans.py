"""Span tracer for the benchmark's traced mode.

The tracer wraps a fixed list of public `gbs` functions at every binding
the package holds: the defining module's attribute, each `from .x import y`
copy in the other `gbs` modules (the package `__init__` included), and the
class attribute for methods.  Each call records a span (function, parent
span, operation id, start, end) in flat arrays; self time is the span's
duration minus the time its child spans cover.  The originals are restored
on exit, so an untraced pass after a traced one runs the plain library.
"""

import functools
import sys
from array import array
from time import perf_counter

# (defining module, qualified name) of every traced function
TRACED = (
    ("arith", "factorize"),
    ("bs_arith", "embeds_bs"),
    ("bs_arith", "power_of_ratio"),
    ("graphs", "LabelledGraph.edges_at"),
    ("graphs", "reduce_graph"),
    ("graphs", "apply_move"),
    ("graphs", "classify_shape"),
    ("graphs", "canonicalize_signs"),
    ("plateaus", "plateaus"),
    ("plateaus", "mu"),
    ("words", "britton_reduce"),
    ("words", "letters_concat"),
    ("words", "letters_power"),
    ("words", "Presentation.letters_to_path"),
    ("homs", "solve_witnesses"),
    ("homs", "substitute_letters"),
    ("homs", "compose"),
    ("homs", "check_epi"),
    ("homs", "HomCertificate.from_json"),
    ("quotients", "descending_chain"),
    ("quotients", "infinite_family"),
    ("quotients", "epi_equivalent_bs"),
    ("embeddings", "embed_bs_construct"),
    ("embeddings", "check_weakly_admissible"),
    ("embeddings", "verify_embedding_certificate"),
    ("embeddings", "EmbeddingCertificate.from_json"),
)


def _word_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["w"]


# work counters measured where the work happens: name -> (counter, fn(args, kwargs, result))
COUNTERS = {
    "graphs.reduce_graph": ("collapses", lambda a, k, r: len(r[1])),
    "plateaus.plateaus": ("found", lambda a, k, r: len(r)),
    "words.britton_reduce": ("syllables", lambda a, k, r: len(_word_arg(a, k).syllables)),
    "words.letters_concat": ("letters_out", lambda a, k, r: len(r)),
    "words.Presentation.letters_to_path": ("syllables_out", lambda a, k, r: len(r.syllables)),
    "homs.solve_witnesses": ("ok", lambda a, k, r: r is not None),
    "embeddings.verify_embedding_certificate": ("ok", lambda a, k, r: bool(r[0])),
}

# per-layer metrics reported by the traced run: name -> stats
REPORTED = {
    "arith.factorize": ("calls", "self_s"),
    "bs_arith.embeds_bs": ("calls", "self_s"),
    "bs_arith.power_of_ratio": ("self_s",),
    "graphs.LabelledGraph.edges_at": ("calls", "self_s"),
    "graphs.reduce_graph": ("calls", "self_s", "collapses"),
    "graphs.apply_move": ("calls", "self_s"),
    "graphs.classify_shape": ("calls", "self_s"),
    "graphs.canonicalize_signs": ("self_s",),
    "plateaus.plateaus": ("calls", "self_s", "found"),
    "plateaus.mu": ("calls", "self_s"),
    "words.britton_reduce": ("calls", "self_s", "syllables", "syllables_per_s"),
    "words.letters_concat": ("calls", "self_s", "letters_out"),
    "words.letters_power": ("calls", "self_s"),
    "words.Presentation.letters_to_path": ("self_s", "syllables_out"),
    "homs.solve_witnesses": ("calls", "self_s", "ok_ratio"),
    "homs.substitute_letters": ("self_s",),
    "homs.compose": ("self_s",),
    "homs.check_epi": ("calls", "self_s"),
    "homs.HomCertificate.from_json": ("self_s",),
    "quotients.descending_chain": ("self_s",),
    "quotients.infinite_family": ("self_s",),
    "quotients.epi_equivalent_bs": ("self_s",),
    "embeddings.embed_bs_construct": ("calls", "self_s"),
    "embeddings.check_weakly_admissible": ("self_s",),
    "embeddings.verify_embedding_certificate": ("calls", "self_s", "ok_ratio"),
    "embeddings.EmbeddingCertificate.from_json": ("self_s",),
}

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "collapses": "count",
    "found": "count",
    "syllables": "count",
    "syllables_per_s": "1/s",
    "letters_out": "count",
    "syllables_out": "count",
    "ok_ratio": "ratio",
}


class Tracer:
    """Context manager installing span-recording wrappers into `gbs`."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self.fid = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = [0] * len(self.names)
        self.current_op = -1
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gbs" or n.startswith("gbs.")]
        for fid, (mod, qual) in enumerate(TRACED):
            home = sys.modules[f"gbs.{mod}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, fid))
                else:
                    wrapped = self._wrap(raw, fid)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(original, fid)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, fn, fid):
        stack = self._stack
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        counter = COUNTERS.get(self.names[fid])
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                counts[fid] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def begin(self):
        """Token marking the start of a pass, for `summarize`."""
        return len(self.fid), list(self.counts)

    def summarize(self, token) -> dict:
        """Per-function calls, root calls (made from outside any traced
        span), self seconds and counter totals since `token`."""
        lo, counts0 = token
        hi = len(self.fid)
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        n = len(self.names)
        calls = [0] * n
        roots = [0] * n
        self_s = [0.0] * n
        for i in range(lo, hi):
            f = self.fid[i]
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - child[i - lo]
            if self.parent[i] < 0:
                roots[f] += 1
        out = {}
        for f, name in enumerate(self.names):
            row = {"calls": calls[f], "root_calls": roots[f], "self_s": self_s[f]}
            if name in COUNTERS:
                row[COUNTERS[name][0]] = self.counts[f] - counts0[f]
            out[name] = row
        return out

    def write(self, path, stop: int):
        """Spans [0, stop) as text: a header naming the functions, then one
        line per span: id, function id, parent id, operation id, start and
        end (seconds)."""
        with open(path, "w") as fh:
            fh.write("# functions: " + " ".join(self.names) + "\n")
            fh.write("# span fid parent op start_s end_s\n")
            for i in range(stop):
                fh.write(
                    f"{i} {self.fid[i]} {self.parent[i]} {self.op[i]} "
                    f"{self.start[i]:.9f} {self.end[i]:.9f}\n"
                )
