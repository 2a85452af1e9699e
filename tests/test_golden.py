"""Golden outputs: seeded results pinned to their exact values.

A refactor of the samplers or the harness must leave every seeded output
byte-identical.  This file pins a short campaign (both noise models, all four
algorithms), the chain, sweep and decoder results it rests on, and the
spacetime substrate's record sampling, chain and deformation move, against
``golden.json`` next to it.  Floats are compared through ``repr``, so equal
means bit-equal, NaN included; that holds for the campaign's Wilson bounds
too, whose normal quantile is an exact constant.

Regenerate the data only for an intended change of outputs, and name the
moved values when you do: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
from pathlib import Path

import numpy as np

from surfmc import (
    EQUIV_CLASSES,
    ExperimentConfig,
    MeasurementModel,
    MetropolisChain,
    NoiseModel,
    SpacetimeChain,
    beta_bar,
    build_layout,
    decode_enhanced,
    decode_free_energy,
    decode_single_temperature,
    default_single_temp_config,
    deformation_move,
    free_energy_temperatures,
    initial_hypothesis,
    parallel_sweep_schedule,
    run_campaign,
    run_parallel_sweep,
    sample_frame,
    sample_record,
)
from surfmc.harness import ALGORITHMS, format_results_csv

GOLDEN = Path(__file__).with_name("golden.json")
MODELS = {
    "depolarizing": NoiseModel.depolarizing(0.1),
    "independent_xz": NoiseModel.independent_xz(0.1, 0.1),
}


def _f(v) -> str:
    return repr(float(v))


def _frame(f) -> list[str]:
    return [hex(f.x), hex(f.z)]


def campaign_csvs() -> list[str]:
    common = dict(seed=606, algorithms=ALGORITHMS, max_trials=96, target_logical_errors=None)
    return [
        format_results_csv(run_campaign(ExperimentConfig(
            L_values=(3, 5), p_values=(0.10, 0.13), **common))),
        format_results_csv(run_campaign(ExperimentConfig(
            L_values=(5,), p_values=(0.08,), model_kind="independent_xz",
            refine_steps=256, **common))),
    ]


def chain_results() -> dict:
    plan = [("burn", 700), ("step",), ("run", 2500), ("step",), ("step",), ("run", 1500)]
    out = {}
    for L in (3, 5, 7):
        layout = build_layout(L)
        for name, model in MODELS.items():
            for k, beta in enumerate((0.3, beta_bar(model), math.inf)):
                frame = sample_frame(model, layout, np.random.default_rng(10 * L + k))
                chain = MetropolisChain(layout, model, beta, frame, np.random.default_rng(k))
                seen = []
                for call in plan:
                    if call[0] == "step":
                        chain.step()
                    else:
                        chain.run(call[1], accumulate=call[0] == "run")
                    seen.append([chain.current_n, chain.step_count, chain.cumulative_n])
                chain.verify_confinement()
                out[f"L={L} {name} beta={_f(beta)}"] = {
                    "trace": seen,
                    "estimate": _f(chain.estimate),
                    "standard_error": _f(chain.standard_error()),
                    "frame": _frame(chain.frame),
                }
    return out


def sweep_results() -> dict:
    out = {}
    for L in (5, 7):
        layout = build_layout(L)
        for size in (2, 3):
            schedule = parallel_sweep_schedule(layout, size)
            for name, model in MODELS.items():
                for k, beta in enumerate((0.3, beta_bar(model))):
                    frame = sample_frame(model, layout, np.random.default_rng(L + k))
                    result = run_parallel_sweep(
                        layout, model, beta, frame, schedule, 2000,
                        np.random.default_rng(100 + k), burn_in=150,
                    )
                    out[f"L={L} size={size} {name} beta={_f(beta)}"] = {
                        "estimate": _f(result.estimate),
                        "standard_error": _f(result.standard_error),
                        "steps": result.steps,
                        "frame": _frame(result.frame),
                    }
    return out


def decoder_results() -> dict:
    out = {}
    for L, n_sample in ((3, 3000), (5, 625)):
        layout = build_layout(L)
        for name, model in MODELS.items():
            frame = sample_frame(NoiseModel.depolarizing(0.13), layout,
                                 np.random.default_rng(L))
            syndrome = layout.syndrome_of(frame)
            _, chain_set = decode_enhanced(layout, syndrome, model)
            fe = decode_free_energy(
                layout, syndrome, model, free_energy_temperatures(model, 11), n_sample,
                chain_set, np.random.SeedSequence(L),
            )
            cfg = default_single_temp_config(model, layout, n_sample=3 * n_sample, burn_in=64)
            st = decode_single_temperature(
                layout, syndrome, model, cfg, chain_set, np.random.SeedSequence(L + 1)
            )
            estimates = fe.detail["free_energy"]
            out[f"L={L} {name}"] = {
                "free_energy": {
                    "class": fe.cls.label,
                    **{
                        c.label: {
                            "means": [_f(v) for v in estimates[c].means],
                            "ses": [_f(v) for v in estimates[c].ses],
                            "integral": _f(estimates[c].integral),
                            "integral_se": _f(estimates[c].integral_se),
                            "log_z": _f(estimates[c].log_z),
                        }
                        for c in EQUIV_CLASSES
                    },
                },
                "single_temperature": {
                    "class": st.cls.label,
                    "scores": {c.label: _f(v) for c, v in st.scores.items()},
                    "se": {c.label: _f(v) for c, v in st.detail["se"].items()},
                },
            }
    return out


def _hypothesis(hyp) -> dict:
    return {"frames": [_frame(f) for f in hyp.frames], "flips": [hex(f) for f in hyp.flips]}


def spacetime_results() -> dict:
    out = {}
    for L, t_max in ((3, 3), (3, 5), (5, 4)):
        layout = build_layout(L)
        for name, model in MODELS.items():
            mm = MeasurementModel.from_probabilities(model, 0.1)
            rng = np.random.default_rng(1000 * L + t_max)
            record, truth = sample_record(layout, model, mm, t_max, rng)
            chain = SpacetimeChain(layout, model, mm, initial_hypothesis(layout, record), rng)
            trajectory = []
            for _ in range(20):
                chain.run(500)
                trajectory.append({"n": chain.n, "m": chain.m, **_hypothesis(chain.hyp)})
            q = int(rng.integers(0, layout.n_qubits))
            moved = deformation_move(layout, truth, q, t_max - 1, "Z")
            out[f"L={L} t_max={t_max} {name}"] = {
                "record": [hex(o) for o in record.observed],
                "truth": _hypothesis(truth),
                "trajectory": trajectory,
                "deformation": {"qubit": q, **_hypothesis(moved)},
            }
    return out


def test_campaign_csvs():
    assert campaign_csvs() == json.loads(GOLDEN.read_text())["campaigns"]


def test_chain_results():
    assert chain_results() == json.loads(GOLDEN.read_text())["chains"]


def test_sweep_results():
    assert sweep_results() == json.loads(GOLDEN.read_text())["sweeps"]


def test_decoder_results():
    assert decoder_results() == json.loads(GOLDEN.read_text())["decoders"]


def test_spacetime_results():
    assert spacetime_results() == json.loads(GOLDEN.read_text())["spacetime"]


if __name__ == "__main__":
    data = {
        "campaigns": campaign_csvs(),
        "chains": chain_results(),
        "sweeps": sweep_results(),
        "decoders": decoder_results(),
        "spacetime": spacetime_results(),
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
