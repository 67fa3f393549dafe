"""The whole-grid reference for the package's filtered blocks.

The package returns a source's filtered JSA only on the block of grid points
its filter passes (``sources.filtered_ring_block`` / ``filtered_waveguide_block``).
These evaluate the same kernels on every point of the grid, filter there and
normalize, so that the tests can check the blocks against the whole grid.
"""
import numpy as np

from biphoton import sources
from biphoton.sources import RingSource, sum_abs2
from biphoton.spectral import sample_filter


def raw(pump1, pump2, source, grid):
    """The source's JSA values on every point of ``grid``, not normalized."""
    if isinstance(source, RingSource):
        return sources._ring_values(*sources._ring_factors(pump1, pump2, source, grid))
    return sources._waveguide_values(pump1, pump2, source, grid)


def filtered(grid, values, spec=None):
    """(JSA, survival): ``values`` on ``grid`` times the filter ``spec`` on both
    arms, normalized, and their sum of |F|^2 over the unfiltered one. Without a
    filter every sample is 1; a survival below MIN_SURVIVAL raises."""
    total = sum_abs2(values)
    samples = np.ones(grid.n_points) if spec is None else sample_filter(spec, grid)
    values = values * (samples[:, None] * samples[None, :])
    survival = sources._require_survival(sum_abs2(values) / total)
    return sources._normalize(grid, values, "whole grid"), survival


def jsa(pump1, pump2, source, grid, spec=None):
    """(JSA, survival) of the source on the whole ``grid``, filtered by ``spec``."""
    return filtered(grid, raw(pump1, pump2, source, grid), spec)


def of_scenario(scenario, n_points=None):
    """(JSA, survival) of the scenario's source on its whole grid at ``n_points``, filtered by its filter."""
    return jsa(*scenario.pumps, scenario.source, scenario.grid(n_points), scenario.filter_spec)
