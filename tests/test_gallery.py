"""Each gallery case backed by a bundled session is that session file: every
``Session`` field of the builder's result equals the freshly loaded file's.
The one documented exception is ``partial_rank_triple``, which puts its
order-0 invariant first among the seeds and comes with its system solved."""

import os
from dataclasses import fields

import pytest

from jetsigma import gallery
from jetsigma.session import Session, load_session

SESSIONS = os.path.join(os.path.dirname(__file__), "..", "src", "jetsigma", "sessions")

# builder -> the session file it loads
SESSION_OF = {
    "exp_coupled_pair": "exp_coupled_pair",
    "scaling_pair": "scaling_pair",
    "transpose_twist_cases": "transposed_twist",
    "identity_twist_quotient": "identity_twist_quotient",
    "bilinear_mixing": "bilinear_mixing",
    "radial_quotient": "radial_quotient",
    "radial_polynomial": "radial_polynomial",
    "three_component_chain": "three_component_chain",
    "partial_rank_triple": "partial_rank_triple",
    "constant_coefficient_ansatz": "determining_ansatz",
}


@pytest.mark.parametrize("builder", sorted(SESSION_OF))
def test_each_case_is_its_session_file(builder):
    built = getattr(gallery, builder)()
    loaded = load_session(os.path.join(SESSIONS, SESSION_OF[builder] + ".session"))
    assert loaded.name == SESSION_OF[builder]
    if builder == "constant_coefficient_ansatz":
        assert built == (loaded.ctx, loaded.system, loaded.ansatz)
        return
    if builder == "transpose_twist_cases":
        # the three twist cases are named after their fields
        names = ["translations_transposed", "scaling_transposed", "translations_mixed"]
        assert [case.name for case in built] == names
        built = built[0]
    else:
        assert built.name == loaded.name
    override = {"seeds", "extra_base", "system"} if builder == "partial_rank_triple" else set()
    for f in fields(Session):
        if f.init and f.name != "name" and f.name not in override:
            assert getattr(built, f.name) == getattr(loaded, f.name), f.name
    if override:
        assert built.seeds == loaded.extra_base + loaded.seeds
        assert built.extra_base == []
        assert built.system == loaded.solved_system()
