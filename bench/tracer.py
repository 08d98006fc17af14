"""In-process tracer for the benchmark's traced run.

It wraps every public function of each fetalguard module from outside the
program. A module that imported a function by name holds its own binding, so
every binding of the function object is patched: module attributes and the
values of module-level dicts (``persistence._DECODERS`` holds the
``model_from_dict`` functions that ``load_model`` calls). ``uninstall`` puts
every original back.

Spans (id, parent, name, key, start, end) and per-name totals stay in memory;
``write_spans`` writes them out when the run ends. The pipeline is
single-threaded, so one stack of open spans is enough and nothing ever waits
in a queue.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from collections import Counter
from time import perf_counter_ns
from types import FunctionType

LAYERS = (
    "config",
    "ingest",
    "synth",
    "preprocess",
    "datasets",
    "nn",
    "autoencoder",
    "ganomaly",
    "iforest",
    "persistence",
    "metrics",
    "experiment",
    "cli",
)

# Recursive per-node or per-tree helpers. A wrapper on each tree node would
# swamp the save, load and score spans above them, so they run unwrapped and
# their time counts as the caller's own.
UNWRAPPED = {"iforest.tree_to_dict", "iforest.tree_from_dict", "iforest.path_length"}

# Called about 200 times per scored sample: totals only, no span records.
TALLY_ONLY = {"iforest.harmonic_number", "iforest.average_path_correction"}

# Functions whose callees are also reported under the function's name, so the
# nn calls made by GANomaly and AE training can be told apart.
CONTEXTS = {"ganomaly.train_ganomaly": "ganomaly", "autoencoder.train_ae": "autoencoder"}

MODEL_KEYS = {"IsolationForestModel": "iforest", "AeModel": "ae", "GanomalyModel": "ganomaly"}
MODELS = tuple(MODEL_KEYS.values())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _net_key(net) -> str:
    # the GANomaly discriminator is the only network that ends in a sigmoid
    return "d" if net.layers[-1].activation == "sigmoid" else "g"


def _forest_nodes(model) -> int:
    nodes = 0
    for tree in model.trees:
        pending = [tree.root]
        while pending:
            node = pending.pop()
            nodes += 1
            if hasattr(node, "left"):
                pending.extend((node.left, node.right))
    return nodes


class Tracer:
    """Wraps the program's public functions and records spans and counts."""

    def __init__(self, package: str = "fetalguard"):
        self.package = package
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []
        self.pass_counts: list[Counter] = []  # exact counts, one Counter per traced pass
        self.counts = Counter()
        self._stack: list[list] = []  # open spans: [span_id, child_ns]
        self._context: list[str] = []
        self._d_params: set[int] = set()
        self._patches: list[tuple] = []
        self._wrappers: dict = {}  # original function -> its wrapper
        self._next_id = 1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every wrapped function; the wrappers are made once."""
        if not self._wrappers:
            self._wrappers = self._make_wrappers()
        wrappers = self._wrappers
        for module_name, module in list(sys.modules.items()):
            if module_name != self.package and not module_name.startswith(self.package + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._patches.append((namespace, attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, FunctionType) and item in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[item]

    def _make_wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(name, fn)
        return wrappers

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def begin_pass(self) -> None:
        self.counts = Counter()

    def end_pass(self) -> None:
        self.pass_counts.append(self.counts)

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        keyer = getattr(self, "_key_" + name.replace(".", "_"), None)
        observer = getattr(self, "_observe_" + name.replace(".", "_"), None)
        keep_span = name not in TALLY_ONLY
        context = CONTEXTS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            if context:
                # array ids of an earlier discriminator may have been reused
                self._d_params.clear()
                self._context.append(context)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                if context:
                    self._context.pop()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                key = keyer(args, kwargs, result) if keyer else ""
                self._record(name, key, total, total - frame[1])
                if keep_span:
                    self.spans.append((span_id, parent, name, key, start, end))
                if observer:
                    observer(args, kwargs, result)

        return wrapper

    def _record(self, name: str, key: str, total: int, own: int) -> None:
        names = [name]
        if key:
            names.append(f"{name}[{key}]")
        if self._context:
            names += [f"{self._context[-1]}:{n}" for n in names]
        for n in names:
            stat = self.stats.get(n)
            if stat is None:
                stat = self.stats[n] = [0, 0, 0]
            stat[0] += 1
            stat[1] += total
            stat[2] += own

    # -- keys: the part of a name that depends on the call ------------------

    def _key_experiment_run_single(self, args, kwargs, result):
        return _arg(args, kwargs, 0, "name")

    _key_experiment_fit_detector = _key_experiment_run_single

    def _key_persistence_save_model(self, args, kwargs, result):
        return MODEL_KEYS.get(type(_arg(args, kwargs, 0, "model")).__name__, "other")

    def _key_persistence_load_model(self, args, kwargs, result):
        return MODEL_KEYS.get(type(result).__name__, "failed")

    def _key_nn_forward(self, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        key = _net_key(net)
        if key == "d":  # remembered so that the Adam step on these arrays is keyed "d" too
            self._d_params.update(id(p) for p in net.parameters())
        return key

    def _key_nn_backward(self, args, kwargs, result):
        return _net_key(_arg(args, kwargs, 0, "net"))

    def _key_nn_adam_step(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        return "d" if params and id(params[0]) in self._d_params else "g"

    # -- observers: exact counts of work done -----------------------------

    def _observe_ingest_parse_record_csv(self, args, kwargs, result):
        if result is not None:
            self.counts["ingest.rows"] += int(result.fhr.size)

    def _observe_ingest_load_collection(self, args, kwargs, result):
        if result is not None:
            self.counts["ingest.skipped"] += len(result.skipped)

    def _observe_preprocess_preprocess_collection(self, args, kwargs, result):
        if result is not None:
            self.counts["preprocess.rejected"] += len(result.rejected)

    def _observe_ganomaly_train_ganomaly(self, args, kwargs, result):
        if result is not None:
            self.counts["ganomaly.iters"] += len(result[1].l_d)

    def _observe_autoencoder_train_ae(self, args, kwargs, result):
        if result is not None:
            self.counts["autoencoder.epochs"] += len(result[1].train_loss) - 1

    def _observe_iforest_build_forest(self, args, kwargs, result):
        if result is not None:
            self.counts["iforest.nodes"] += _forest_nodes(result)

    def _observe_iforest_if_score(self, args, kwargs, result):
        self.counts["iforest.samples_scored"] += 1

    def _observe_iforest_if_scores(self, args, kwargs, result):
        if result is not None:
            self.counts["iforest.batch_samples"] += len(result)

    def _observe_persistence_save_model(self, args, kwargs, result):
        key = self._key_persistence_save_model(args, kwargs, result)
        self.counts[f"persistence.bytes.{key}"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _observe_persistence_load_model(self, args, kwargs, result):
        if result is not None:
            key = MODEL_KEYS.get(type(result).__name__, "other")
            self.counts[f"persistence.bytes.{key}"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # FLOPs and bytes below are computed from layer shapes, not measured:
    # 2*b*in*out per dense layer forward (the matmul), 4*b*in*out backward
    # (weight and input gradients), and for Adam 7 float64 arrays streamed per
    # parameter (read p, g, m, v; write p, m, v).

    def _observe_nn_forward(self, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        x = _arg(args, kwargs, 1, "x")
        rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
        self.counts["nn.flop"] += 2 * rows * sum(l.in_dim * l.out_dim for l in net.layers)

    def _observe_nn_backward(self, args, kwargs, result):
        net = _arg(args, kwargs, 0, "net")
        rows = _arg(args, kwargs, 1, "cache").inputs[0].shape[0]
        self.counts["nn.flop"] += 4 * rows * sum(l.in_dim * l.out_dim for l in net.layers)

    def _observe_nn_adam_step(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        self.counts["nn.adam_bytes"] += 7 * 8 * sum(p.size for p in params)

    # -- reading ----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of one name; zeros if it never ran."""
        return tuple(self.stats.get(name, (0, 0, 0)))

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer: each span's duration minus its wrapped callees."""
        busy = dict.fromkeys(LAYERS, 0)
        for name, (_, _, own) in self.stats.items():
            if ":" in name or "[" in name:
                continue
            busy[name.split(".", 1)[0]] += own
        return busy

    def root_ns(self) -> int:
        """Time spent inside any wrapped call."""
        return sum(
            end - start for _, parent, _, _, start, end in self.spans if parent == 0
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,key,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%s,%d,%d\n" % span)


# -- per-layer metrics --------------------------------------------------------


def per_layer_metrics(tracer: Tracer, untraced_walls: list, traced_walls: list) -> dict:
    """name -> (value, unit, note). Times and counts are per traced pass.

    A time whose function never ran on this workload reads 0 and is noted as
    not exercised; counts read 0 as measured.
    """
    passes = len(tracer.pass_counts)
    counts = tracer.pass_counts[0]
    out: dict[str, tuple] = {}

    def calls(*names):
        return sum(tracer.stat(n)[0] for n in names)

    def note(*names):
        return "" if calls(*names) else "not exercised"

    def per_pass_s(*names):
        return sum(tracer.stat(n)[1] for n in names) / passes / 1e9

    def mean_ms(*names):
        count = calls(*names)
        return per_pass_s(*names) * passes * 1e3 / count if count else 0.0

    def put(name, value, unit, why=""):
        out[name] = (value, unit, why)

    def put_time(name, value, unit, *fns):
        put(name, value, unit, note(*fns))

    def ratio(a, b):
        return a / b if b else 0.0

    put_time("ingest.load_s", per_pass_s("ingest.load_collection"), "s", "ingest.load_collection")
    put_time("ingest.parse_ms", mean_ms("ingest.parse_record_csv"), "ms", "ingest.parse_record_csv")
    put("ingest.rows", counts["ingest.rows"], "count")
    put("ingest.skipped", counts["ingest.skipped"], "count")
    put_time(
        "ingest.parse_share",
        ratio(per_pass_s("ingest.parse_record_csv"), per_pass_s("ingest.load_collection")),
        "frac",
        "ingest.load_collection",
    )

    put_time("preprocess.ms_per_record", mean_ms("preprocess.preprocess_pipeline"), "ms",
             "preprocess.preprocess_pipeline")
    put("preprocess.rejected", counts["preprocess.rejected"], "count")

    put_time("synth.generate_s", per_pass_s("synth.generate_dataset"), "s", "synth.generate_dataset")
    splits = ("datasets.train_test_split", "datasets.validation_split")
    put_time("datasets.split_ms", mean_ms(*splits), "ms", *splits)

    nn_s = {}
    for short, fn in (("forward", "nn.forward"), ("backward", "nn.backward"), ("adam", "nn.adam_step")):
        nn_s[short] = per_pass_s(fn)
        put_time(f"nn.{short}_s", nn_s[short], "s", fn)
        put(f"nn.{short}_calls", calls(fn) // passes, "count")
    gflop = counts["nn.flop"] / 1e9
    adam_gb = counts["nn.adam_bytes"] / 1e9
    put("nn.gflop", gflop, "GFLOP", "computed from layer shapes: matmul FLOPs of forward and backward")
    put("nn.adam_gb", adam_gb, "GB", "computed: 7 float64 arrays streamed per parameter per step")
    put_time("nn.gflop_per_s", ratio(gflop, nn_s["forward"] + nn_s["backward"]), "GFLOP/s", "nn.forward")
    put_time("nn.adam_gb_per_s", ratio(adam_gb, nn_s["adam"]), "GB/s", "nn.adam_step")

    iters = counts["ganomaly.iters"]
    gan_fit = per_pass_s("ganomaly.train_ganomaly")
    put("ganomaly.iters", iters, "count")
    put_time("ganomaly.iter_ms", ratio(gan_fit * 1e3, iters), "ms", "ganomaly.train_ganomaly")
    for short, fn in (("forward", "nn.forward"), ("backward", "nn.backward"), ("adam", "nn.adam_step")):
        for side in ("g", "d"):
            name = f"ganomaly:{fn}[{side}]"
            put_time(f"ganomaly.iter_ms.{short}.{side}", ratio(per_pass_s(name) * 1e3, iters), "ms", name)
    put_time("ganomaly.fit_s", gan_fit, "s", "ganomaly.train_ganomaly")
    defaults = importlib.import_module(f"{tracer.package}.ganomaly").GanomalyConfig()
    default_iters = defaults.epochs * defaults.iterations_per_epoch
    put(
        "ganomaly.fit_s_extrapolated",
        ratio(gan_fit, iters) * default_iters,
        "s",
        f"extrapolated to the default {default_iters} iterations, not measured"
        if iters else "not exercised",
    )

    epochs = counts["autoencoder.epochs"]
    ae_fit = per_pass_s("autoencoder.train_ae")
    put("autoencoder.epochs", epochs, "count")
    put_time("autoencoder.epoch_ms", ratio(ae_fit * 1e3, epochs), "ms", "autoencoder.train_ae")
    put_time("autoencoder.fit_s", ae_fit, "s", "autoencoder.train_ae")

    put_time("iforest.build_s", per_pass_s("iforest.build_forest"), "s", "iforest.build_forest")
    put("iforest.nodes", counts["iforest.nodes"], "count")
    put_time(
        "iforest.batch_score_us",
        ratio(per_pass_s("iforest.if_scores") * 1e6, counts["iforest.batch_samples"]),
        "us",
        "iforest.if_scores",
    )
    put_time("iforest.single_score_us", mean_ms("iforest.if_score") * 1e3, "us", "iforest.if_score")
    put("iforest.samples_scored", counts["iforest.samples_scored"], "count")
    put_time(
        "iforest.correction_share",
        ratio(per_pass_s("iforest.average_path_correction"), per_pass_s("iforest.if_score")),
        "frac",
        "iforest.if_score",
    )

    for model in MODELS:
        save, load = f"persistence.save_model[{model}]", f"persistence.load_model[{model}]"
        put_time(f"persistence.save_ms.{model}", mean_ms(save), "ms", save)
        put_time(f"persistence.load_ms.{model}", mean_ms(load), "ms", load)
        put(f"persistence.bytes.{model}", counts[f"persistence.bytes.{model}"], "count")

    put_time("metrics.evaluate_ms", mean_ms("metrics.evaluate_scores"), "ms", "metrics.evaluate_scores")
    writers = ("metrics.write_pr_csv", "metrics.write_roc_csv", "metrics.render_curves_svg")
    put_time("metrics.write_ms", per_pass_s(*writers) * 1e3, "ms", *writers)

    for model in MODELS:
        leg, fit = f"experiment.run_single[{model}]", f"experiment.fit_detector[{model}]"
        put_time(f"experiment.leg_s.{model}", per_pass_s(leg), "s", leg)
        put_time(f"experiment.fit_s.{model}", per_pass_s(fit), "s", fit)
    put_time("experiment.distribution_s", per_pass_s("ganomaly.score_distribution_report"), "s",
             "ganomaly.score_distribution_report")
    put_time("experiment.write_s", per_pass_s("experiment.write_run_artifacts"), "s",
             "experiment.write_run_artifacts")

    cli_own = sum(own for name, (_, _, own) in tracer.stats.items() if name.startswith("cli.") and "[" not in name)
    put_time("cli.overhead_ms", ratio(cli_own / 1e6, calls("cli.main")), "ms", "cli.main")
    put_time(
        "cli.load_share",
        ratio(per_pass_s("persistence.load_model"), per_pass_s("cli.main")),
        "frac",
        "cli.main",
    )

    for layer, own in tracer.layer_self_ns().items():
        put(f"layer.{layer}.busy_s", own / passes / 1e9, "s", "" if own else "not exercised")

    traced_wall = statistics.fmean(traced_walls)
    busy = tracer.root_ns() / passes / 1e9
    # each traced pass ran right after an untraced one; their difference is
    # taken pair by pair, so that a slow phase of the machine falls on both
    pair_overheads = [t - u for u, t in zip(untraced_walls, traced_walls)]
    put("trace.untraced_wall_s", statistics.median(untraced_walls), "s", "median untraced pass")
    put("trace.traced_wall_s", statistics.median(traced_walls), "s", "median traced pass")
    put("trace.overhead_s", statistics.median(pair_overheads), "s",
        "median over pairs of traced minus untraced pass time")
    put("trace.busy_frac", ratio(busy, traced_wall), "frac", "layer busy time / traced pass time")
    put("trace.unaccounted_s", traced_wall - busy, "s", "traced pass time outside every layer span")
    return out


# Today's hot spots, as measured before this benchmark existed on 2 cores with
# OpenBLAS. They are reported, not enforced: an optimisation is meant to move them.
HOT_SPOTS = {
    "run_synth": [
        ("ganomaly.iter_ms", 19.0, "about 19 ms per GANomaly iteration"),
        ("autoencoder.epoch_ms", 47.0, "about 47 ms per AE epoch"),
    ],
    "run_files": [
        ("ingest.parse_share", None, "ingest dominated by parse_record_csv"),
        ("iforest.correction_share", None, "per-sample iforest scoring dominated by "
         "average_path_correction -> harmonic_number"),
    ],
    "score_cli": [
        ("cli.load_share", None, "a score call dominated by load_model"),
    ],
}


def sanity_checks(workload: str, metrics: dict) -> list[dict]:
    """Does the trace account for the pass time, and does it show today's hot spots?"""
    busy = metrics["trace.busy_frac"][0]
    checks = [{
        "name": "layers account for the pass",
        "ok": busy >= 0.9,
        "detail": f"busy {busy:.1%} of the traced pass, "
                  f"{metrics['trace.unaccounted_s'][0]:.4f} s unaccounted",
    }]
    for name, expected, what in HOT_SPOTS.get(workload, []):
        value = metrics[name][0]
        if expected is None:  # a share that should be the majority
            ok, detail = value > 0.5, f"{name} = {value:.1%}"
        else:  # a time within a factor of two of today's
            ok, detail = expected / 2 <= value <= expected * 2, f"{name} = {value:.4g} (today ~{expected:g})"
        checks.append({"name": what, "ok": ok, "detail": detail})
    return checks
