"""Shared experiment configuration.

Every experiment driver accepts an :class:`ExperimentConfig`, which mostly
exists to pick the dataset *scale*: the paper's experiments run on the
full ~98k-transaction dataset, but most of its graph-mining runs took
hours to days on 2005 hardware even for tiny subgraphs, so the
reproduction defaults to a reduced scale that preserves the data's shape
while keeping each experiment in the seconds-to-minutes range.  Passing
``scale=1.0`` reproduces the full-size dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.binning import BinningScheme, default_binning_scheme
from repro.datasets.generator import GeneratorConfig, TransportationDataGenerator
from repro.datasets.schema import TransactionDataset
from repro.obs.tracer import get_tracer
from repro.runtime import resolve_backend, resolve_workers


@dataclass
class ExperimentConfig:
    """Configuration shared by the experiment drivers.

    Parameters
    ----------
    scale:
        Fraction of the paper's dataset size to generate (1.0 = full size).
    seed:
        Seed for the synthetic data generator.
    weight_bins, hour_bins, distance_bins:
        Edge-label binning granularity (paper: 7 weight bins, 10 hour bins).
    workers:
        Worker count for the parallel mining runtime used by the
        graph-mining experiments; each of them builds one runtime from
        ``workers`` and ``backend`` (:func:`~repro.runtime.create_runtime`)
        for its run and closes it afterwards.  ``0`` / ``1`` mean the
        serial backend; ``>= 2`` shards support counting across that many
        workers.  ``None`` defers to the ``REPRO_WORKERS`` environment
        variable (default serial); an explicit value, ``0`` included,
        beats it.  Parallelism never changes mining output.
    backend:
        Sharded-runtime backend (``"process"`` or ``"serial"``); ``None``
        defers to ``REPRO_BACKEND`` (default ``"process"``).
    """

    scale: float = 0.05
    seed: int = 20050405
    weight_bins: int = 7
    hour_bins: int = 10
    distance_bins: int = 10
    workers: int | None = None
    backend: str | None = None
    _dataset_cache: TransactionDataset | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # Fail fast on bad knobs rather than deep inside a mining run; the
        # actual resolution happens where runtimes are built.
        resolve_workers(self.workers)
        resolve_backend(self.backend)

    def binning(self) -> BinningScheme:
        """The binning scheme implied by the configuration."""
        return default_binning_scheme(
            weight_bins=self.weight_bins,
            hour_bins=self.hour_bins,
            distance_bins=self.distance_bins,
        )

    def dataset(self) -> TransactionDataset:
        """Generate (and cache) the synthetic dataset at the configured scale."""
        if self._dataset_cache is None:
            # Generation is a real slice of every experiment's wall clock;
            # a traced run shows it as its own span instead of letting it
            # hide inside the first experiment's timing.
            with get_tracer().span("dataset.generate", scale=self.scale, seed=self.seed):
                generator = TransportationDataGenerator(GeneratorConfig(scale=self.scale, seed=self.seed))
                self._dataset_cache = generator.generate()
        return self._dataset_cache
