import numpy as np
import pytest

from defacepipe import defacing, synthetic
from defacepipe.defacing import make_template_pack


@pytest.fixture(scope="session")
def head():
    return synthetic.nominal_head()


@pytest.fixture(scope="session")
def pack(head):
    return make_template_pack(head.volume)


@pytest.fixture(scope="session")
def fixed(pack):
    """pack's template prepared for registration, once per session, shared
    by the deface tests and those that call register_affine directly."""
    return pack.fixed


@pytest.fixture
def register_as(monkeypatch):
    """Call register_as(t) to make deface's stage 6 return the
    subject-to-template transform t instead of registering."""

    def install(transform):
        def register_affine(fixed, moving):
            return np.asarray(transform, dtype=np.float64), {"injected": True}

        monkeypatch.setattr(defacing, "register_affine", register_affine)

    return install


@pytest.fixture
def rng():
    return np.random.default_rng(0)
