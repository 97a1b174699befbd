"""Seeded quotients for tests that need quotients which unwrap, drawn as
the campaign's covers suite draws them, by ``harness._draw_cover_quotient``
on the parameters of the orbicomplex's relator."""

from orelco.harness import GeneratorParams, _draw_cover_quotient


def draw_quotient(rng, x):
    params = GeneratorParams(1, x.relator, x.branch_index)
    if params.orbicomplex._rose_symbols != x._rose_symbols:
        raise ValueError("draws need the rose of the relator's letters")
    return _draw_cover_quotient(rng, params)
