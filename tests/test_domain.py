"""Label table and trial validation."""

import dataclasses

import numpy as np
import pytest

from csisense.domain import (
    LABELS,
    NUM_CLASSES,
    STEADY_STATE,
    Trial,
    label_to_index,
    validate_trial,
)
from csisense.errors import DomainError


def test_class_codes_are_frozen():
    # downstream formats store these codes as integers, so the order is a
    # compatibility contract
    assert LABELS == (
        "steady-state",
        "approaching",
        "departing",
        "handshaking",
        "high-five",
        "hugging",
        "kicking-left",
        "kicking-right",
        "pointing-left",
        "pointing-right",
        "punching-left",
        "punching-right",
        "pushing",
    )
    assert STEADY_STATE == 0
    assert NUM_CLASSES == 13


def test_label_round_trip():
    for i, name in enumerate(LABELS):
        assert label_to_index(name) == i
    with pytest.raises(DomainError):
        label_to_index("waving")


def _trial(timestamps, labels=None, dims=(2, 3, 4), n_rx=3):
    n = len(timestamps)
    return Trial(
        timestamps=np.asarray(timestamps, dtype=np.float64),
        noise=np.full(n, -92.0),
        agc=np.full(n, 30.0),
        rssi=np.zeros((n, n_rx)),
        csi=np.zeros((n, *dims), dtype=np.complex128),
        labels=np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels),
        pair_id="pair00",
        trial_id="t",
    )


def test_trial_dims_come_from_csi():
    assert _trial([0.0, 0.1]).dims == (2, 3, 4)
    assert _trial([], dims=(1, 2, 30), n_rx=2).dims == (1, 2, 30)


def _violations(trial) -> str:
    with pytest.raises(DomainError, match="^invalid trial: ") as exc:
        validate_trial(trial)
    return str(exc.value)


def test_validate_ok():
    validate_trial(_trial([0.0, 0.1, 0.1, 0.5], labels=[0, 0, 0, 12]))  # raises on any violation


def test_validate_flags_each_problem():
    bad = _trial([0.0, 0.2, 0.1, 0.3, 0.4], labels=[0, 0, 0, 0, 55], n_rx=2)
    bad.noise[1] = np.nan
    bad.csi[3, 1, 0, 2] = complex(0.0, np.inf)
    # five violations; the message names the first three, in check order
    assert _violations(bad) == (
        "invalid trial: rssi shape (5, 2) does not match n_rx 3; "
        "label 55 out of range at index 4; non-monotone timestamp at index 2"
    )
    nonfinite = _trial([0.0, 0.1, 0.2, 0.3])
    nonfinite.noise[1] = np.nan
    nonfinite.csi[3, 1, 0, 2] = complex(0.0, np.inf)
    assert _violations(nonfinite) == (
        "invalid trial: noise is not finite at index 1; csi is not finite at index 3"
    )
    assert "label -1 out of range at index 0" in _violations(_trial([0.0], labels=[-1]))


@pytest.mark.parametrize("field", ["noise", "agc", "rssi", "csi", "labels"])
def test_validate_names_a_field_whose_length_disagrees(field):
    trial = _trial([0.0, 0.1, 0.2])
    short = dataclasses.replace(trial, **{field: getattr(trial, field)[:2]})
    assert f"{field} has 2 rows but timestamps has 3" in _violations(short)


def test_validate_empty_trial():
    assert "no packets" in _violations(_trial([]))
