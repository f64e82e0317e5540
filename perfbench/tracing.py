"""Spans around the public functions of glnz, installed from outside.

``Tracer.call`` replaces every binding of each traced function with a
wrapper for the length of one call: the defining module's, each module
that copied it with ``from .exactmat import ...``, and the package's
re-export.  Methods are replaced on their class.  Nothing under ``src/``
is edited, and every original is put back after the call, so traced and
untraced calls can alternate.

Spans live in flat arrays (name, start, end, parent, op) until ``write``.
A span's self time is its duration minus the durations of its direct
children.  The per-call statistics on matrix products and canonical
bases are computed outside the spans and their cost is charged to no
layer, so they do not inflate any self time.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# module -> traced functions, "Class.method" for methods; these names are
# the per-layer metric names
TRACED = {
    "exactmat": (
        "IntMatrix.new", "IntMatrix.mul", "IntMatrix.det", "IntMatrix.inverse",
        "row_hermite", "Lattice.new", "Lattice.saturate", "kernel_lattice",
        "restriction_matrix", "rank_mod2", "rational_rank", "random_unimodular",
        "basis_completion", "element_order",
    ),
    "involution": (
        "is_involution", "eigen_lattices", "profile", "classify", "canonical_form",
        "order3_witness", "four_involution_witness", "involution_from_splitting",
    ),
    "transvection": ("recognize_transvection", "mutual_subgroup", "shared_summand_predicate"),
    "congruence": (
        "in_gamma", "elementary_factorization", "Factorization.product", "lift_mod2",
        "lift_row_to_sl3",
    ),
    "verify": ("run_suite",),
    "cli": ("main", "parse_matrix_document", "matrix_payload"),
}
# private CLI helpers that hold the JSON decode and encode; traced only so
# that cli.main.codec_share can be measured, and not reported on their own
CODEC_HELPERS = ("_read_document", "_emit")
_METHOD_ATTR = {"new": "__init__", "mul": "__mul__"}


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("trace.overhead", "ratio")]
    for module, fns in TRACED.items():
        out += [(f"{module}.self_s", "s"), (f"{module}.raised", "count")]
        for fn in fns:
            out += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
    out += [
        ("exactmat.IntMatrix.mul.madds", "count"),
        ("exactmat.IntMatrix.mul.nonzero_frac", "ratio"),
        ("exactmat.IntMatrix.mul.mean_bits", "bit"),
        ("involution.canonical_form.u_bits", "bit"),
        ("verify.sample_share", "ratio"),
        ("congruence.elementary_factorization.check_share", "ratio"),
        ("cli.main.codec_share", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self, glnz):
        self.glnz = glnz
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised: list[int] = []
        # operands of IntMatrix * IntMatrix: products, madds, entries,
        # nonzero entries, bits of the nonzero entries
        self.mul = [0, 0, 0, 0, 0]
        self.u_bits = [0, 0]  # sum of max entry bits of U, calls
        self._patches: list[tuple[object, str, object, object]] = []
        self._find_bindings()

    # -- installation ---------------------------------------------------
    def _find_bindings(self) -> None:
        glnz = self.glnz
        modules = [glnz] + [getattr(glnz, m) for m in TRACED]
        hooks = {"exactmat.IntMatrix.mul": self._mul_stats}
        post = {"involution.canonical_form": self._u_stats}
        for module_name, fns in TRACED.items():
            module = getattr(glnz, module_name)
            extra = CODEC_HELPERS if module_name == "cli" else ()
            for fn in fns + extra:
                name = f"{module_name}.{fn}"
                wrap = lambda f, n=name: self._wrap(n, f, hooks.get(n), post.get(n))
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(module, cls_name)
                    orig = owner.__dict__[_METHOD_ATTR.get(meth, meth)]
                    self._replace([owner], orig, wrap(orig), vars(owner))
                else:
                    orig = getattr(module, fn)
                    self._replace(modules, orig, wrap(orig))

    def _replace(self, owners, orig, wrapper, attrs=None) -> None:
        for owner in owners:
            for attr, value in (attrs or vars(owner)).items():
                if value is orig:
                    self._patches.append((owner, attr, orig, wrapper))

    def call(self, fn, op: int):
        """fn() with every traced function wrapped; spans get op id op."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return fn()
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)

    # -- the wrapper ----------------------------------------------------
    def _wrap(self, name, fn, pre=None, post=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.raised.append(0)
        calls, self_s, raised, stack = self.calls, self.self_s, self.raised, self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        tracer = self

        def untimed(hook, value):
            h0 = perf_counter()
            hook(value)
            if stack:
                stack[-1][1] += perf_counter() - h0

        def traced(*args, **kwargs):
            if pre is not None:
                untimed(pre, args)
            idx = len(starts)
            frame = [idx, 0.0]
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                untimed(post, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _mul_stats(self, args) -> None:
        a, b = args
        if type(b) is not type(a):
            return
        n = a.n
        nonzero = [x for M in (a, b) for row in M.rows for x in row if x]
        st = self.mul
        st[0] += 1
        st[1] += n * n * n
        st[2] += 2 * n * n
        st[3] += len(nonzero)
        st[4] += sum(x.bit_length() for x in nonzero)

    def _u_stats(self, result) -> None:
        self.u_bits[0] += max(abs(x) for row in result.U.rows for x in row).bit_length()
        self.u_bits[1] += 1

    # -- results ----------------------------------------------------------
    def self_test(self, wall: float) -> list[str]:
        """Every span closed, and self times fit in the traced wall time."""
        problems = []
        if self.stack:
            problems.append(f"{len(self.stack)} spans still open")
        if any(e < s or not e for s, e in zip(self.span_start, self.span_end)):
            problems.append("a span ends before it starts or never ends")
        total_self = sum(self.self_s)
        if total_self > wall:
            problems.append(f"self times sum to {total_self:.6f} s > wall {wall:.6f} s")
        return problems

    def _inclusive(self, name: str, within: str | None = None) -> float:
        """Total duration of spans called name; with within, only spans
        that have a span called within among their ancestors."""
        if name not in self.names:
            return 0.0
        nid = self.names.index(name)
        wid = self.names.index(within) if within else None
        total = 0.0
        names, parents = self.span_name, self.span_parent
        for i, k in enumerate(names):
            if k != nid:
                continue
            if wid is not None:
                p = parents[i]
                while p >= 0 and names[p] != wid:
                    p = parents[p]
                if p < 0 or names[p] != wid:
                    continue
            total += self.span_end[i] - self.span_start[i]
        return total

    def metrics(self, overhead: float) -> dict[str, float]:
        ids = {name: i for i, name in enumerate(self.names)}
        values: dict[str, float] = {"trace.overhead": overhead}
        for module, fns in TRACED.items():
            in_module = [i for name, i in ids.items() if name.startswith(module + ".")]
            values[f"{module}.self_s"] = sum(self.self_s[i] for i in in_module)
            values[f"{module}.raised"] = sum(self.raised[i] for i in in_module)
            for fn in fns:
                i = ids[f"{module}.{fn}"]
                values[f"{module}.{fn}.calls"] = self.calls[i]
                values[f"{module}.{fn}.self_s"] = self.self_s[i]
        _, madds, entries, nonzero, bits = self.mul
        values["exactmat.IntMatrix.mul.madds"] = madds
        values["exactmat.IntMatrix.mul.nonzero_frac"] = nonzero / entries if entries else 0.0
        values["exactmat.IntMatrix.mul.mean_bits"] = bits / nonzero if nonzero else 0.0
        u_sum, u_calls = self.u_bits
        values["involution.canonical_form.u_bits"] = u_sum / u_calls if u_calls else 0.0

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        values["verify.sample_share"] = share(
            self._inclusive("exactmat.random_unimodular", within="verify.run_suite"),
            self._inclusive("verify.run_suite"),
        )
        values["congruence.elementary_factorization.check_share"] = share(
            self._inclusive(
                "congruence.Factorization.product", within="congruence.elementary_factorization"
            ),
            self._inclusive("congruence.elementary_factorization"),
        )
        codec = sum(
            self._inclusive(name, within="cli.main")
            for name in ("cli._read_document", "cli.matrix_payload", "cli._emit")
        )
        values["cli.main.codec_share"] = share(codec, self._inclusive("cli.main"))
        return values

    def write(self, path, record: dict) -> int:
        """Write the run record and every span, one JSON list per line:
        [name, start_s, end_s, parent_index, op]; times are relative to the
        first span.  Returns the number of spans."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps(record) + "\n")
            f.write(json.dumps(self.names) + "\n")
            for k, s, e, p, op in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                f.write(f"[{k},{s - t0:.9f},{e - t0:.9f},{p},{op}]\n")
        return len(self.span_name)
