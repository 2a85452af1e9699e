"""Print the sampling decoders' per-class details on seeded syndromes.

For L = 3, 5 and 7, depolarizing (p = 0.10) and independent (p = 0.08)
noise, and burn-in 0 and 50, it decodes a few seeded syndromes with
``decode_single_temperature`` and ``decode_free_energy`` at their default
sizes (n_sample = L^4, 21 temperatures) and prints every class's means,
standard errors, integral, ``integral_se`` and log Z as exact float reprs.
The campaign CSVs carry only verdict counts, so this dump is what shows a
change that moves one bit of an estimate.  ``tools/identity.py`` hashes its
output; it needs ``surfmc`` on the path:

    PYTHONPATH=src python3 tools/sampler_detail.py
"""

import numpy as np

from surfmc import (
    EQUIV_CLASSES,
    NoiseModel,
    build_layout,
    decode_enhanced,
    decode_free_energy,
    decode_single_temperature,
    default_single_temp_config,
    free_energy_temperatures,
    sample_frame,
)

SYNDROMES = 4


def floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def main() -> None:
    models = (NoiseModel.depolarizing(0.10), NoiseModel.independent_xz(0.08, 0.08))
    for L in (3, 5, 7):
        layout = build_layout(L)
        for m, model in enumerate(models):
            temps = free_energy_temperatures(model, 21)
            for burn_in in (0, 50):
                cfg = default_single_temp_config(model, layout, burn_in=burn_in)
                for i in range(SYNDROMES):
                    rng = np.random.default_rng([L, m, burn_in, i])
                    syndrome = layout.syndrome_of(sample_frame(model, layout, rng))
                    _, seeds = decode_enhanced(layout, syndrome, model)
                    head = f"L={L} {model.kind} burn_in={burn_in} syndrome={i}"
                    single = decode_single_temperature(
                        layout, syndrome, model, cfg, seeds,
                        np.random.SeedSequence([L, m, burn_in, i, 1]),
                    )
                    free = decode_free_energy(
                        layout, syndrome, model, temps, cfg.n_sample, seeds,
                        np.random.SeedSequence([L, m, burn_in, i, 2]), burn_in,
                    )
                    for cls in EQUIV_CLASSES:
                        est = free.detail["free_energy"][cls]
                        print(f"{head} {cls.label} single {single.scores[cls]!r} "
                              f"{float(single.detail['se'][cls])!r}")
                        print(f"{head} {cls.label} means {floats(est.means)}")
                        print(f"{head} {cls.label} ses {floats(est.ses)}")
                        print(f"{head} {cls.label} integral {est.integral!r} "
                              f"{est.integral_se!r} {est.log_z!r}")


if __name__ == "__main__":
    main()
