"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps boskit's public functions at every binding that
holds them: each module attribute of the `boskit` package (so `permanent`
in `boskit.engine`, and `assemble_transfer_matrix` in both `circuit` and
`engine`) and each value of a module-level dict (the optimizer's
`OBJECTIVES` table).  `uninstall` puts the originals back.  Nothing in
the package source changes.  A function that a later version no longer
has is skipped, so its layer reports 0 calls.

Spans are recorded only inside `Tracer.call`, one root span per workload
call, so the correctness checks run between calls stay untraced.  A span
is (name, start, end, parent span, call id) plus an optional value taken
from the arguments or the result, such as the permanent's size.  Spans
are kept in flat arrays (a traced optimizer run records about a million)
and written out once, when the run ends.
"""

import contextlib
import functools
import sys
import time
from array import array

ROOT = "bench.call"

# Span name -> (defining module, public functions recorded under it).
LAYERS = {
    "cli.main": ("boskit.cli", ("main",)),
    "dslio.parse": ("boskit.dslio", ("parse_circuit", "parse_input",
                                     "parse_pmf", "parse_pairs")),
    "dslio.serialize": ("boskit.dslio", ("serialize_circuit", "serialize_input",
                                         "serialize_pmf", "serialize_shots")),
    "circuit.check": ("boskit.circuit", ("check_static", "check_structure")),
    "circuit.assemble": ("boskit.circuit", ("assemble_transfer_matrix",)),
    "gates.gate_matrix": ("boskit.gates", ("gate_matrix",)),
    "fock.enumerate": ("boskit.fock", ("enumerate_fock_states",)),
    "fock.as_fock_state": ("boskit.fock", ("as_fock_state",)),
    "engine.prob_fn": ("boskit.engine", ("prob_fn",)),
    "engine.output_amplitude": ("boskit.engine", ("output_amplitude",)),
    "engine.permanent": ("boskit.engine", ("permanent",)),
    "engine.distance": ("boskit.engine", ("distance_tv", "distance_l2")),
    "sampler.sample": ("boskit.sampler", ("sample",)),
    "optimizer.opt_config": ("boskit.optimizer", ("opt_config",)),
    "optimizer.fd_gradient": ("boskit.optimizer", ("fd_gradient",)),
}
NAMES = (ROOT,) + tuple(LAYERS)
NO_VALUE = -1


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Span name -> value recorded from (args, kwargs, result): a count, or for
# `opt_config` the pair count and the loss history.
MEASURES = {
    "dslio.serialize": lambda a, k, r: len(r.encode("utf-8")),
    "fock.enumerate": lambda a, k, r: len(r),
    "engine.prob_fn": lambda a, k, r: len(r),
    "engine.permanent": lambda a, k, r: len(_first_arg(a, k, "matrix")),
    "sampler.sample": lambda a, k, r: r.n_shots,
    "optimizer.opt_config": lambda a, k, r: (
        len(_first_arg(a, k, "problem").pairs), r.loss_history),
}


class Tracer:
    def __init__(self):
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.call_ids = array("q")
        self.values = array("q")
        self.details: dict = {}  # span index -> non-integer value
        self.call_id = -1
        self._stack = [-1]
        self._active = False
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.names)

    def install(self) -> None:
        wrappers = {}
        for layer, (module_name, functions) in LAYERS.items():
            module = sys.modules.get(module_name)
            for function in functions:
                original = getattr(module, function, None)
                if callable(original):
                    wrappers[id(original)] = (original, self._wrap(layer, original))
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "boskit":
                continue
            namespace = vars(module)
            for container in [namespace] + [v for v in namespace.values()
                                            if isinstance(v, dict)]:
                for key, value in list(container.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        container[key] = hit[1]
                        self._restore.append((container, key, value))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    @contextlib.contextmanager
    def call(self, call_id: int):
        """Root span of one workload call; spans are recorded only inside it."""
        self.call_id = call_id
        self._active = True
        index = self._open(0)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self._close(index, start, time.perf_counter())
            self._active = False

    def _open(self, name: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.call_ids.append(self.call_id)
        self.values.append(NO_VALUE)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.starts[index] = start
        self.ends[index] = end

    def _set_value(self, index: int, value) -> None:
        if isinstance(value, int):
            self.values[index] = value
        else:
            self.details[index] = value

    def _wrap(self, layer, original):
        name = NAMES.index(layer)
        measure = MEASURES.get(layer)
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            index = self._open(name)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(index, start, clock())
                if measure is not None and result is not None:
                    self._set_value(index, measure(args, kwargs, result))

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent,call_id\n")
            for i in range(len(self)):
                f.write(f"{NAMES[self.names[i]]},{self.starts[i]!r},"
                        f"{self.ends[i]!r},{self.parents[i]},{self.call_ids[i]}\n")

    def layer_totals(self) -> dict:
        """Per span name: calls, self seconds, and the recorded values.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so the children never overlap.
        """
        child_time = [0.0] * len(self)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0, "values": []} for name in NAMES}
        for index, (name, start, end, value) in enumerate(
                zip(self.names, self.starts, self.ends, self.values)):
            entry = totals[NAMES[name]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if value != NO_VALUE:
                entry["values"].append(value)
            elif index in self.details:
                entry["values"].append(self.details[index])
        return totals

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        target = NAMES.index(name)
        parent = self.parents[index]
        while parent >= 0 and self.names[parent] != target:
            parent = self.parents[parent]
        return parent
