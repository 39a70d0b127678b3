"""Span tracer for fpx, installed from outside the package.

Each traced function is replaced, in every fpx module that binds it, by a
wrapper that records one span (name, start, end, parent) in flat arrays and
keeps per-group call counts, total time and self time (duration minus the
time covered by child spans).  Groups are the per-layer metric families of
the benchmark, e.g. every ``Graph`` method is one ``graph.op`` group.  Spans
stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (function name, group) for module-level functions; the tensor module is
# handled separately because every public kernel is traced.
_FUNCTIONS = {
    "fpx.graph": [("backward", "graph.backward"),
                  ("backward_nodes", "graph.backward"),
                  ("partial_diff", "graph.partial_diff")],
    "fpx.fpi": [("forward_fpi", "fpi"), ("backward_fpi", "fpi"), ("fpi_layer", "fpi")],
    "fpx.train": [("adam_step", "train.adam_step"), ("grad_clamp", "train.grad_clamp"),
                  ("mse_loss", "train.loss"), ("bce_loss", "train.loss"),
                  ("build_mse", "train.loss"), ("build_bce", "train.loss"),
                  ("psnr", "train.loss"), ("f1_score", "train.loss"),
                  ("select_threshold", "train.loss")],
    "fpx.data": [("load_image_dir", "data.load"),
                 ("generate_synthetic_corpus", "data.generate")],
}

# (module, class, method, group); methods are patched on the defining class.
_METHODS = [
    ("fpx.layers", "GModule", "apply", "layers.apply"),
    ("fpx.layers", "MlpG", "build", "layers.build"),
    ("fpx.layers", "ConvG", "build", "layers.build"),
    ("fpx.layers", "GdG", "build", "layers.build"),
    ("fpx.layers", "AffineG", "build", "layers.build"),
    ("fpx.layers", "EnergyNet", "build", "layers.build"),
    # the final-gradient sweep of the backward solve has no public name
    ("fpx.fpi", "_CotangentIteration", "final_grads", "fpi"),
]

KERNELS = ("conv2d", "conv2d_grad_input", "conv2d_grad_kernel", "matmul")


def _conv_out(n, k, stride, padding):
    return (n + 2 * padding - k) // stride + 1


# Computed work of one kernel call: (flop, bytes of operands and result).
# Flops count the multiply-adds of the underlying product; bytes ignore the
# im2col buffers and caches, so both are labelled "computed".
def _cost_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _cost_conv2d(inp, kernel, stride=1, padding=0):
    cout, cin, kh, kw = kernel.shape
    _, h, w = inp.shape
    oh, ow = _conv_out(h, kh, stride, padding), _conv_out(w, kw, stride, padding)
    macs = cout * cin * kh * kw * oh * ow
    return 2 * macs, 8 * (cin * h * w + kernel.size + cout * oh * ow)


def _cost_conv2d_grad_input(seed, kernel, stride=1, padding=0):
    cout, cin, kh, kw = kernel.shape
    _, oh, ow = seed.shape
    h = (oh - 1) * stride + kh - 2 * padding
    w = (ow - 1) * stride + kw - 2 * padding
    macs = cout * cin * kh * kw * oh * ow
    return 2 * macs, 8 * (seed.size + kernel.size + cin * h * w)


def _cost_conv2d_grad_kernel(seed, inp, kernel_hw, stride=1, padding=0):
    cout, oh, ow = seed.shape
    cin = inp.shape[0]
    kh, kw = kernel_hw
    macs = cout * cin * kh * kw * oh * ow
    return 2 * macs, 8 * (seed.size + inp.size + cout * cin * kh * kw)


_COSTS = {"conv2d": _cost_conv2d, "conv2d_grad_input": _cost_conv2d_grad_input,
          "conv2d_grad_kernel": _cost_conv2d_grad_kernel, "matmul": _cost_matmul}


class Tracer:
    """Wraps fpx functions with span recorders; ``uninstall`` restores them."""

    def __init__(self):
        self.names: list[str] = []          # span name per name id
        self.group_of: list[str] = []       # metric group per name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.flop: dict[str, int] = {k: 0 for k in KERNELS}
        self.bytes: dict[str, int] = {k: 0 for k in KERNELS}
        self.fwd = {"solves": 0, "iters": 0, "unconverged": 0, "s": 0.0}
        self.bwd = {"solves": 0, "iters": 0, "unconverged": 0, "s": 0.0,
                    "cotangent_s": 0.0, "final_sweep_s": 0.0}
        self.missing: list[str] = []
        self._stack: list[list] = []        # [span index, child seconds]
        self._undo: list[tuple] = []
        self._ids: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.group_of.append(group)
            for table in (self.calls, self.total_s, self.self_s):
                table.setdefault(group, 0)
        return self._ids[name]

    def wrap(self, fn, name: str, group: str, after=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs,
        result, seconds, parent_name)`` runs once the span is closed."""
        nid = self._name_id(name, group)
        stack, names = self._stack, self.names
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_start)
            parent = stack[-1][0] if stack else -1
            s_name.append(nid)
            s_parent.append(parent)
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            s_start.append(start)
            s_end.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                s_end[idx] = end
                seconds = end - start
                calls[group] += 1
                total_s[group] += seconds
                self_s[group] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                if after is not None:
                    parent_name = names[s_name[parent]] if parent >= 0 else ""
                    after(args, kwargs, result, seconds, parent_name)

        return traced

    def span(self, name: str, group: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span recorded by this tracer."""
        return self.wrap(fn, name, group)(*args, **kwargs)

    # -- solver and kernel hooks ---------------------------------------------

    def _after_forward(self, args, kwargs, result, seconds, parent_name):
        if parent_name == "fpi.backward_fpi":    # the cotangent solve
            self.bwd["cotangent_s"] += seconds
            return
        self.fwd["solves"] += 1
        self.fwd["s"] += seconds
        if result is None:                       # raised: counted as failed
            self.fwd["unconverged"] += 1
            return
        self.fwd["iters"] += result.iterations
        self.fwd["unconverged"] += 0 if result.converged else 1

    def _after_backward(self, args, kwargs, result, seconds, parent_name):
        self.bwd["solves"] += 1
        self.bwd["s"] += seconds
        if result is None:
            self.bwd["unconverged"] += 1
            return
        self.bwd["iters"] += result.iterations
        self.bwd["unconverged"] += 0 if result.converged else 1

    def _after_final(self, args, kwargs, result, seconds, parent_name):
        self.bwd["final_sweep_s"] += seconds

    def _kernel_hook(self, kernel: str):
        cost = _COSTS[kernel]

        def after(args, kwargs, result, seconds, parent_name):
            flop, nbytes = cost(*args, **kwargs)
            self.flop[kernel] += flop
            self.bytes[kernel] += nbytes
        return after

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch fpx in place: every binding of a traced function, in every
        loaded fpx module, is replaced by its wrapper."""
        replace: dict[int, object] = {}
        tensor = sys.modules["fpx.tensor"]
        for attr, fn in vars(tensor).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != "fpx.tensor"):
                continue
            group = f"tensor.{attr}" if attr in KERNELS else "tensor.other"
            after = self._kernel_hook(attr) if attr in KERNELS else None
            replace[id(fn)] = self.wrap(fn, f"tensor.{attr}", group, after)
        hooks = {"forward_fpi": self._after_forward, "backward_fpi": self._after_backward}
        for module_name, entries in _FUNCTIONS.items():
            module = sys.modules[module_name]
            for attr, group in entries:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                short = module_name.split(".")[1]
                replace[id(fn)] = self.wrap(fn, f"{short}.{attr}", group, hooks.get(attr))
        for module_name in [m for m in sys.modules if m == "fpx" or m.startswith("fpx.")]:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if id(value) in replace and callable(value):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
        graph_cls = sys.modules["fpx.graph"].Graph
        for attr, fn in list(vars(graph_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._patch_method(graph_cls, attr, f"Graph.{attr}", "graph.op")
        for module_name, cls_name, attr, group in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            name = "fpi.final_grads" if attr == "final_grads" else f"{cls_name}.{attr}"
            after = self._after_final if attr == "final_grads" else None
            self._patch_method(cls, attr, name, group, after)

    def _patch_method(self, cls, attr, name, group, after=None):
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, group, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def save_spans(self, path: str, np):
        """Write the spans as an .npz of flat arrays plus the name and group
        tables: ``name`` indexes the tables, ``parent`` the spans (-1: none)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            groups=np.array(self.group_of),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
