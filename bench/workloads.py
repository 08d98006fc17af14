"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and hands the program
only those inputs: a config file, signal CSVs, or model files. ``body`` is the
timed pass, ``check`` verifies its outputs (outside the timed region) and
``clean`` removes what the pass wrote.

The program is called through its module attributes (``experiment.run_experiment``,
``cli.main``) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fetalguard import (
    autoencoder,
    cli,
    config,
    datasets,
    experiment,
    ganomaly,
    iforest,
    persistence,
    preprocess,
    synth,
)

N_NORMAL, N_ABNORMAL = 370, 182
# what the stratified 90-10 split of the 552-record corpus must give
EXPECTED_SIZES = {"train": 496, "test": 56}
EXPECTED_TEST_ABNORMAL = 19

# Fixed training schedules, so every run does the same number of iterations.
# GANomaly's default patience (25) cannot fire within 1 epoch; the AE's
# patience is raised past its epoch count. Default AE early stopping stops
# anywhere between 122 and 200 epochs depending on the seed. The schedules are
# short enough for four to seven passes in a 36-second run.
AE_SCHEDULE = {"epochs": 30, "patience": 31}
GANOMALY_SCHEDULE = {"epochs": 1, "iterations_per_epoch": 100}

# Corpus for the score_cli models: large enough that the default forest draws
# full 256-sample subsamples; its 30 test records are the recordings scored.
SCORE_CORPUS = (200, 100)
# The CLI scores one 1-row matrix where the reference scored a batch, so BLAS
# may sum in another order; the scores agree to this relative tolerance.
SCORE_RTOL = 1e-9
BATCH_SCORERS = {
    "iforest": iforest.if_scores,
    "ae": autoencoder.ae_scores,
    "ganomaly": ganomaly.gan_scores,
}
SCORE_MODELS = tuple(BATCH_SCORERS)  # the round-robin order
SCORE_MIN_CALLS = 100  # per model
BRIEF_CONFIGS = {
    "iforest": iforest.IforestConfig(),
    "ae": autoencoder.AeConfig(epochs=2),
    "ganomaly": ganomaly.GanomalyConfig(epochs=1, iterations_per_epoch=10),
}


@dataclass
class PassOutcome:
    """What one pass did: one error (or None) per operation, and its outputs."""

    errors: list
    fingerprint: dict = field(default_factory=dict)  # output name -> SHA-256
    quality: dict = field(default_factory=dict)  # metric name -> value
    latencies: dict = field(default_factory=dict)  # model -> seconds per call


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    setup_repeats = 3  # setup_s is taken over this many set-ups
    min_passes = 3  # a run measures at least this many passes, however long they take

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.dir = work_dir
        self.setups = 0
        self.passes = 0

    def setup(self) -> None:
        """Make this run's inputs in a fresh directory."""
        self.setups += 1
        self.dir = self.work_dir / f"setup{self.setups}"
        self.dir.mkdir(parents=True)
        self.make_inputs()

    def discard_inputs(self) -> None:
        shutil.rmtree(self.dir)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def body(self):
        raise NotImplementedError

    def check(self, raw) -> PassOutcome:
        raise NotImplementedError

    def clean(self, raw) -> None:
        pass


class _RunWorkload(Workload):
    """``experiment.run_experiment`` on a config; one operation per model leg."""

    models: tuple = ()

    def make_inputs(self) -> None:
        self.corpus = synth.generate_dataset(N_NORMAL, N_ABNORMAL, seed=self.seed)
        self.truth = {item.record.record_id: item.label for item in self.corpus}
        body = {
            "data": self.data_section(),
            "split": {"seed": self.seed},
            "model": self.model_section(),
            "eval": {"seeds": 1},
        }
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")

    def data_section(self) -> dict:
        raise NotImplementedError

    def model_section(self) -> dict:
        raise NotImplementedError

    def body(self):
        self.passes += 1
        out_dir = self.dir / f"out{self.passes}"
        legs = {}
        original = experiment.run_single

        def capture(name, *args, **kwargs):
            legs[name] = original(name, *args, **kwargs)
            return legs[name]

        experiment.run_single = capture
        error = None
        try:
            cfg = config.load_config(self.config_path)
            experiment.run_experiment(cfg, out_dir=out_dir)
        except Exception:  # a failing run is counted against every leg, the benchmark goes on
            error = traceback.format_exc(limit=3)
        finally:
            experiment.run_single = original
        return out_dir, legs, error

    def check(self, raw) -> PassOutcome:
        out_dir, legs, error = raw
        outcome = PassOutcome(errors=[])
        seed_dir = out_dir / f"seed_{self.seed:03d}"
        for model in self.models:
            if error is not None:
                outcome.errors.append(f"{model}: run raised {error}")
                continue
            outcome.errors.append(self.check_leg(model, legs.get(model), seed_dir / model, outcome))
        aggregate = out_dir / "aggregate.json"
        if aggregate.exists():
            outcome.fingerprint["aggregate.json"] = sha256_file(aggregate)
        return outcome

    def check_leg(self, model, leg, leg_dir: Path, outcome: PassOutcome):
        if leg is None:
            return f"{model}: leg never ran"
        if leg["guard_reads"] != 1:
            return f"{model}: test guard read {leg['guard_reads']} times, expected 1"
        sizes = {k: leg["sizes"][k] for k in EXPECTED_SIZES}
        if sizes != EXPECTED_SIZES:
            return f"{model}: split sizes {sizes}, expected {EXPECTED_SIZES}"
        n_abnormal = sum(1 for fv in leg["test_items"] if fv.label == 1)
        if n_abnormal != EXPECTED_TEST_ABNORMAL:
            return f"{model}: {n_abnormal} abnormal test records, expected {EXPECTED_TEST_ABNORMAL}"
        wrong = [fv.record_id for fv in leg["test_items"] if self.truth.get(fv.record_id) != fv.label]
        if wrong:
            return f"{model}: test labels differ from the generator's for {wrong[:3]}"
        if not all(math.isfinite(float(s)) for s in leg["test_scores"]):
            return f"{model}: non-finite test score"
        report = leg_dir / "report.json"
        if not report.exists():
            return f"{model}: no report.json written"
        outcome.fingerprint[f"{model}/report.json"] = sha256_file(report)
        test = json.loads(report.read_text(encoding="utf-8"))["test"]
        outcome.quality[f"test_f1.{model}"] = test["f1"]
        outcome.quality[f"test_auc_roc.{model}"] = test["auc_roc"]
        return None

    def clean(self, raw) -> None:
        shutil.rmtree(raw[0], ignore_errors=True)


class RunSynth(_RunWorkload):
    """Training: the corpus is generated in-process, so no file is ingested."""

    name = "run_synth"
    models = ("ae", "ganomaly")
    setup_repeats = 10  # a set-up takes about 0.3 s

    def data_section(self) -> dict:
        return {"synth": {"n_normal": N_NORMAL, "n_abnormal": N_ABNORMAL, "seed": self.seed}}

    def model_section(self) -> dict:
        return {"ae": dict(AE_SCHEDULE), "ganomaly": dict(GANOMALY_SCHEDULE)}


class RunFiles(_RunWorkload):
    """The real-data path: 552 signal CSVs and a metadata CSV on disk; iforest only."""

    name = "run_files"
    models = ("iforest",)

    setup_repeats = 2  # writing the CSVs takes about 10 s
    min_passes = 3  # about 4 s each

    def make_inputs(self) -> None:
        super().make_inputs()
        # written after the config, which names the files write_dataset makes
        synth.write_dataset(self.corpus, self.dir)

    def data_section(self) -> dict:
        return {
            "signals_dir": str(self.dir / "signals"),
            "metadata_file": str(self.dir / "metadata.csv"),
        }

    def model_section(self) -> dict:
        return {"iforest": {}}


class ScoreCli(Workload):
    """Bedside scoring: ``fetalguard score`` in-process, one model per call in turn.

    A pass is one cycle: the next recording scored by each of the three models.
    """

    name = "score_cli"
    # p90 of the call latencies then has at least ten samples beyond it per model
    min_passes = SCORE_MIN_CALLS
    setup_repeats = 2  # a set-up takes 2-4 s, and the 100 cycles up to 40 s

    def make_inputs(self) -> None:
        corpus = synth.generate_dataset(*SCORE_CORPUS, seed=self.seed)
        prep_config = preprocess.PreprocessConfig()
        features = preprocess.preprocess_collection(corpus, prep_config).features
        split = datasets.SplitConfig(seed=self.seed)
        train, test = datasets.train_test_split(features, split.test_fraction, self.seed)

        models_dir = self.dir / "models"
        models_dir.mkdir()
        self.model_files, self.taus, self.reference = {}, {}, {}
        for name in SCORE_MODELS:
            fraction = split.val_fraction_ganomaly if name == "ganomaly" else split.val_fraction
            core, validation = datasets.validation_split(train, fraction, self.seed)
            fitted = experiment.fit_detector(
                name, BRIEF_CONFIGS[name], core, validation, len(train), self.seed
            )
            fitted.model.preprocess = prep_config.to_dict()
            self.model_files[name] = models_dir / f"{name}.json"
            persistence.save_model(fitted.model, self.model_files[name])
            self.taus[name] = fitted.tau
            scores = BATCH_SCORERS[name](fitted.model, test)
            self.reference[name] = {fv.record_id: float(s) for fv, s in zip(test, scores)}

        by_id = {item.record.record_id: item for item in corpus}
        signals_dir, _ = synth.write_dataset([by_id[fv.record_id] for fv in test], self.dir / "recordings")
        self.recordings = [signals_dir / f"{fv.record_id}.csv" for fv in test]

    def body(self):
        recording = self.recordings[self.passes % len(self.recordings)]
        self.passes += 1
        calls = []
        for name in SCORE_MODELS:
            out, err = io.StringIO(), io.StringIO()
            argv = ["score", "--model-file", str(self.model_files[name]), "--signal", str(recording)]
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception:  # a crashing call is a failed operation, the loop goes on
                code = traceback.format_exc(limit=3)
            calls.append((name, perf_counter() - start, code, out.getvalue(), err.getvalue()))
        return recording, calls

    def check(self, raw) -> PassOutcome:
        recording, calls = raw
        outcome = PassOutcome(errors=[])
        for name, seconds, code, out, err in calls:
            outcome.latencies[name] = seconds
            outcome.errors.append(self.check_call(name, recording.stem, code, out, err))
            outcome.fingerprint[f"{name}/{recording.stem}"] = hashlib.sha256(out.encode()).hexdigest()
        return outcome

    def check_call(self, name, record_id, code, out, err):
        if code != 0:
            return f"{name}: exit code {code!r}: {err.strip()[-200:]}"
        fields = out.strip().split(",")
        if len(fields) != 4:
            return f"{name}: output {out.strip()!r} is not record_id,score,tau,verdict"
        try:
            score, tau = float(fields[1]), float(fields[2])
        except ValueError:
            return f"{name}: output {out.strip()!r} has a non-numeric score or tau"
        if fields[0] != record_id:
            return f"{name}: record id {fields[0]!r}, expected {record_id!r}"
        if not math.isfinite(score):
            return f"{name}: non-finite score {score!r}"
        expected = self.reference[name][record_id]
        if not math.isclose(score, expected, rel_tol=SCORE_RTOL):
            return f"{name}: score {score!r} differs from batch score {expected!r}"
        if tau != self.taus[name]:
            return f"{name}: tau {tau!r}, model was calibrated to {self.taus[name]!r}"
        verdict = "abnormal" if score > tau else "normal"
        if fields[3] != verdict:
            return f"{name}: verdict {fields[3]!r} but score > tau is {score > tau}"
        return None


WORKLOADS = {cls.name: cls for cls in (RunSynth, RunFiles, ScoreCli)}
