import math

import numpy as np
import pytest

from marc_cap import ChannelConfig, ValidationError, awgn_capacity

# Frozen capacity values, computed once from 0.5*log2(1+x) by hand-checked
# arithmetic before the package existed.
C2 = 0.79248125036057804
C9 = 1.6609640474436811
C10 = 1.7297158093186487


def test_awgn_capacity_reference_points():
    assert awgn_capacity(0.0) == 0.0
    assert awgn_capacity(1.0) == 0.5
    assert awgn_capacity(2.0) == pytest.approx(C2, abs=0, rel=1e-15)
    assert awgn_capacity(3.0) == pytest.approx(1.0, abs=0, rel=1e-15)
    assert awgn_capacity(9.0) == pytest.approx(C9, abs=0, rel=1e-15)
    assert awgn_capacity(10.0) == pytest.approx(C10, abs=0, rel=1e-15)


def test_awgn_capacity_clamps_float_dust():
    assert awgn_capacity(-1e-13) == 0.0


def test_awgn_capacity_rejects_negative():
    with pytest.raises(ValueError):
        awgn_capacity(-1e-6)


def test_config_fields_and_derived(example1):
    assert example1.K == 2
    assert example1.P == (6.0, 4.0)
    assert example1.P_max == 6.0
    assert example1.lam == (1.0, 4.0 / 6.0)
    assert example1.N_d == 2.0
    assert np.array_equal(example1.powers(), [6.0, 4.0])
    assert np.allclose(example1.lam_vector(), [1.0, 2.0 / 3.0], rtol=0, atol=0)
    # The symmetric class: all users at one power, every lambda_k = 1.
    assert ChannelConfig(3, (2.0,) * 3, 5.0, 1.0, 0.5).lam == (1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(K=0, P=(), P_r=1.0, N_r=1.0, N_delta=0.0), "K"),
        (dict(K=2, P=(1.0,), P_r=1.0, N_r=1.0, N_delta=0.0), "P"),
        (dict(K=2, P=(1.0, -1.0), P_r=1.0, N_r=1.0, N_delta=0.0), "P[2]"),
        (dict(K=2, P=(1.0, 1.0), P_r=0.0, N_r=1.0, N_delta=0.0), "P_r"),
        (dict(K=2, P=(1.0, 1.0), P_r=1.0, N_r=0.0, N_delta=0.0), "N_r"),
        (dict(K=2, P=(1.0, 1.0), P_r=1.0, N_r=1.0, N_delta=-0.5), "N_delta"),
        (dict(K=2, P=(1.0, math.inf), P_r=1.0, N_r=1.0, N_delta=0.0), "P[2]"),
    ],
)
def test_config_validation_names_offending_field(kwargs, field):
    with pytest.raises(ValidationError, match=field.replace("[", "\\[").replace("]", "\\]")):
        ChannelConfig(**kwargs)


def test_zero_n_delta_allowed():
    c = ChannelConfig(2, (1.0, 2.0), 1.0, 1.0, 0.0)
    assert c.N_d == c.N_r

