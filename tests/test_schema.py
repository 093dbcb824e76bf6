"""The config classes' field checks, read from their annotations."""

import dataclasses

import numpy as np
import pytest

from ris_secrecy._schema import check_field_types, fits, type_hints
from ris_secrecy.channel import LinkGeometry, SystemParams
from ris_secrecy.montecarlo import McConfig
from ris_secrecy.secrecy import NumericsConfig
from ris_secrecy.sweeps import ConfigError, SweepSpec

# the required fields of each config class, with valid values
_REQUIRED = {
    LinkGeometry: dict(p_s=1.0, n0=1e-4, d_sr=10.0, d_rd=10.0, d_re=20.0, chi=2.0),
    SystemParams: dict(n_elements=5),
    NumericsConfig: {},
    McConfig: {},
    SweepSpec: dict(axis="snr_d_db", values=(0.0, 10.0), base=SystemParams(n_elements=5),
                    outputs=("sop",)),
}


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in _REQUIRED for f in dataclasses.fields(cls)
])
def test_every_config_field_rejects_a_value_of_no_declared_type(cls, name):
    error = ConfigError if cls is SweepSpec else ValueError
    with pytest.raises(error, match=name):
        cls(**{**_REQUIRED[cls], name: object()})


@pytest.mark.parametrize("value, hint, ok", [
    (5, int, True), (np.int64(5), int, True), (np.uint64(5), int, True),
    (True, int, False), (5.0, int, False), ("5", int, False),
    (5, float, True), (np.float32(0.5), float, True), (False, float, False),
    ("0.5", float, False), (None, float, False),
    (True, bool, True), ("false", bool, False), (2, bool, False), (np.bool_(True), bool, False),
    (None, LinkGeometry | None, True), (3.0, float | None, True), ("3", float | None, False),
    (("sop", "asc"), type_hints(SweepSpec)["outputs"], True),
    ("sop", type_hints(SweepSpec)["outputs"], False),  # a string is not a tuple
    (("sop",), type_hints(SweepSpec)["values"], True),
], ids=repr)
def test_fits_follows_the_annotation(value, hint, ok):
    assert fits(value, hint) is ok


def test_literal_and_tuple_fields_take_only_their_declared_values():
    spec = SweepSpec(**_REQUIRED[SweepSpec])
    for bad in (["sop"], ("SOP",)):  # a list is not a tuple; choices are case-sensitive
        with pytest.raises(ConfigError, match="outputs"):
            dataclasses.replace(spec, outputs=bad)
    with pytest.raises(ConfigError, match="values"):
        dataclasses.replace(spec, values=[0.0, 10.0])
    with pytest.raises(ConfigError, match="axis"):
        dataclasses.replace(spec, axis=None)


def test_check_field_types_raises_the_given_error():
    spec = SweepSpec(**_REQUIRED[SweepSpec])
    check_field_types(spec, ConfigError)  # a valid spec passes
    object.__setattr__(spec, "kappa_convention", "db")
    with pytest.raises(KeyError, match="kappa_convention"):
        check_field_types(spec, KeyError)


def test_the_message_names_the_field_and_the_declared_type():
    with pytest.raises(ValueError, match=r"^mc_check must be bool, got 'false'$"):
        NumericsConfig(mc_check="false")
    with pytest.raises(ValueError, match=r"^eav_mode must be Literal\['rayleigh', 'phase_sum'\]"):
        McConfig(eav_mode="gaussian")
    with pytest.raises(ValueError, match=r"^geometry must be LinkGeometry \| None"):
        SystemParams(n_elements=5, geometry={"p_s": 1.0})
