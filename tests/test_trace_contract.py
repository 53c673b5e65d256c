"""The benchmark's trace contract.  perfbench/tracing.py times each layer
by swapping its public function, as an attribute of its dbmatch module,
for a wrapper, and binds some arguments by name (d1, d2, g1,
g2_collapsed).  A trial must therefore call every layer through its
module, or the benchmark silently reads zero time for it."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from dbmatch import experiments
from dbmatch.experiments import config_from_dict
from dbmatch.model import trial_seed_sequence

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# layers that set-up calls; the caches they fill are warm during a trial
SET_UP_LAYERS = {"probability.capacity", "probability.pipeline_scalars"}

CONFIG = {
    "alphabetSize": 2,
    "pX": [0.5, 0.5],
    "pS": [0.1, 0.6, 0.3],
    "channel": [[0.9, 0.1], [0.1, 0.9]],
    "n": 20,
    "m": 64,
    "trials": 1,
    "masterSeed": 1,
    "seedRows": 40,
    "matchRows": 16,
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_trial_calls_each_layer_once_and_keeps_its_record():
    tracing = load_tracing()
    cfg = config_from_dict(CONFIG)
    experiments.config_scalars(cfg)
    experiments.config_params(cfg)
    untraced = experiments.run_trial(cfg, trial_seed_sequence(1, 0))
    assert not untraced.failed

    tracer = tracing.Tracer()
    with tracer.instrument():
        traced = experiments.run_trial(cfg, trial_seed_sequence(1, 0))

    assert replace(traced, wall_time=0.0) == replace(untraced, wall_time=0.0)
    trial_layers = set(tracing.LAYERS) - SET_UP_LAYERS
    assert {name: tracer.calls[name] for name in trial_layers} == dict.fromkeys(trial_layers, 1)
    assert all(tracer.calls[name] == 0 for name in SET_UP_LAYERS)
    busy = tracer.busy()
    assert all(busy[name] > 0 for name in trial_layers)
    assert tracer.work["model.generate_unlabeled"] == 64 * 20
    assert tracer.work["detection.detect_deletions"] > 0
