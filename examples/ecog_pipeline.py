#!/usr/bin/env python3
"""Full on-chip pipeline: raw ECoG -> band-power features -> LDA-FP -> RTL.

The deepest end-to-end demonstration in the repository.  Everything the
silicon would do is simulated:

1. **Raw signals**: multi-channel ECoG with movement-modulated mu and
   high-gamma rhythms (:class:`repro.signal.EcogSimulator`).
2. **Front end**: Welch log band power per channel x band — the paper's
   42 features — plus a look at the on-chip FIR alternative at a finite
   word length (:class:`repro.signal.FixedPointFir`).
3. **Training**: conventional LDA vs LDA-FP at a small word length, with
   stratified cross-validation.
4. **Deployment**: bit-exact datapath evaluation and the Verilog module
   for the trained classifier.

Run:  python examples/ecog_pipeline.py      (takes ~1 minute)
"""

from __future__ import annotations

import numpy as np

from repro.core import LdaFpConfig, PipelineConfig, TrainingPipeline
from repro.data.bci import make_bci_dataset_from_signals
from repro.fixedpoint import QFormat
from repro.hardware import generate_classifier_verilog
from repro.signal import EcogSimulator, FixedPointFir, design_fir
from repro.stats import StratifiedKFold

WORD_LENGTH = 5


def front_end_study() -> None:
    """Compare the float Welch front end with a fixed-point FIR band filter."""
    print("front-end study: fixed-point FIR mu-band filter")
    sim = EcogSimulator(seed=0)
    fs = sim.config.sample_rate
    trial = sim.trial("left")
    channel = trial.signals[3] / np.max(np.abs(trial.signals[3]))
    taps = design_fir(101, (10.0, 25.0), kind="bandpass", sample_rate=fs)
    for fraction_bits in (12, 8, 5):
        fmt = QFormat(2, fraction_bits)
        fir = FixedPointFir(taps, fmt)
        exact = fir.apply(channel)
        reference = fir.reference_apply(channel)
        nmse = float(np.mean((exact - reference) ** 2) / np.mean(reference**2))
        print(f"  {fmt}: coefficient err {fir.coefficient_error():.2e}, "
              f"datapath NMSE {nmse:.2e}")


def main() -> None:
    front_end_study()

    print("\nsimulating raw ECoG and extracting 42 band-power features...")
    dataset = make_bci_dataset_from_signals(trials_per_class=40, seed=0)
    print(f"dataset: {dataset.num_samples} trials x {dataset.num_features} features")

    lda_pipe = TrainingPipeline(PipelineConfig(method="lda", lda_shrinkage=1e-3))
    fp_pipe = TrainingPipeline(
        PipelineConfig(
            method="lda-fp",
            ldafp=LdaFpConfig(max_nodes=25, time_limit=8, shrinkage=1e-3,
                              local_search_radius=1),
        )
    )
    lda_errors, fp_errors = [], []
    last_result = None
    for train_idx, test_idx in StratifiedKFold(4, seed=0).split(dataset.labels):
        train, test = dataset.subset(train_idx), dataset.subset(test_idx)
        lda_errors.append(lda_pipe.run(train, test, WORD_LENGTH).test_error)
        last_result = fp_pipe.run(train, test, WORD_LENGTH)
        fp_errors.append(last_result.test_error)

    print(f"\n{WORD_LENGTH}-bit cross-validated error:")
    print(f"  conventional LDA : {100 * float(np.mean(lda_errors)):.2f}%")
    print(f"  LDA-FP           : {100 * float(np.mean(fp_errors)):.2f}%")

    classifier = last_result.classifier
    print(f"\ntrained classifier: {classifier.describe()}")
    verilog = generate_classifier_verilog(classifier)
    print(f"generated RTL     : {len(verilog.splitlines())} lines of Verilog")
    print("\nfirst Verilog lines:")
    for line in verilog.splitlines()[:8]:
        print("  " + line)


if __name__ == "__main__":
    main()
