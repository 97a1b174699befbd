"""Seeded quotients for tests that need quotients which unwrap, drawn as
the campaign's covers suite draws them, by ``harness._draw_cover_quotient``
on the parameters of the orbicomplex's relator."""

import functools

from orelco.harness import GeneratorParams, _draw_cover_quotient


@functools.cache
def _params(relator, branch_index):
    """The parameters of one relator and branch index, kept with their
    search trees: a draw is a function of its key alone, so the trees that
    earlier draws expanded change no later draw, and each node is expanded
    once."""
    return GeneratorParams(1, relator, branch_index)


def draw_quotient(rng, x):
    params = _params(x.relator, x.branch_index)
    if params.orbicomplex._rose_symbols != x._rose_symbols:
        raise ValueError("draws need the rose of the relator's letters")
    return _draw_cover_quotient(rng, params)
