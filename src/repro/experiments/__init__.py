"""Harness reproducing the paper's three experiments and all figures."""

from repro.experiments.experiment1 import (
    EXPERIMENT1_DATASETS,
    EXPERIMENT1_FIGURES,
    experiment1_config,
    run_experiment1,
)
from repro.experiments.experiment2 import (
    EXPERIMENT2_DATASETS,
    EXPERIMENT2_FIGURES,
    experiment2_config,
    run_experiment2,
)
from repro.experiments.experiment3 import (
    EXPERIMENT3_FRACTIONS,
    RobustnessComparison,
    compare_robustness,
    experiment3_config,
    run_experiment3,
)
from repro.experiments.export import (
    export_dispersion_csv,
    export_evolution_csv,
    export_experiment,
    export_improvements_csv,
)
from repro.experiments.figures import (
    DispersionData,
    dispersion_data,
    evolution_rows,
    improvement_rows,
)
from repro.experiments.population_builder import (
    PAPER_MIXES,
    PopulationMix,
    build_initial_population,
    build_method_suite,
)
from repro.experiments.reporting import (
    render_dispersion,
    render_evolution,
    render_improvements,
    render_timing,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    default_generations,
    drop_best,
    run_experiment,
)

__all__ = [
    "PopulationMix",
    "PAPER_MIXES",
    "build_initial_population",
    "build_method_suite",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "drop_best",
    "default_generations",
    "experiment1_config",
    "run_experiment1",
    "EXPERIMENT1_DATASETS",
    "EXPERIMENT1_FIGURES",
    "experiment2_config",
    "run_experiment2",
    "EXPERIMENT2_DATASETS",
    "EXPERIMENT2_FIGURES",
    "experiment3_config",
    "run_experiment3",
    "EXPERIMENT3_FRACTIONS",
    "RobustnessComparison",
    "compare_robustness",
    "DispersionData",
    "dispersion_data",
    "evolution_rows",
    "improvement_rows",
    "render_dispersion",
    "render_evolution",
    "render_improvements",
    "render_timing",
    "export_dispersion_csv",
    "export_evolution_csv",
    "export_improvements_csv",
    "export_experiment",
]
