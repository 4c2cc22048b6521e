import datetime as dt

import pytest

from mlca_trends.catalog import CardSpec
from mlca_trends.lca import (
    ElectricityMix,
    ImpactFactors,
    ImpactVector,
    LcaConstants,
    ServerProfile,
    ServerProfileTable,
)


def make_card(name="Card X", **kwargs):
    defaults = dict(
        vendor="NVIDIA",
        release_date=dt.date(2020, 1, 1),
        die_area_mm2=600.0,
        process_node_nm=7.0,
        memory_gb=32.0,
        memory_type="HBM2",
        tdp_w=300.0,
        peak_fp32=1e13,
        source="other",
    )
    defaults.update(kwargs)
    return CardSpec(name=name, **defaults)


@pytest.fixture
def card():
    return make_card()


@pytest.fixture
def default_constants():
    return LcaConstants()


@pytest.fixture
def workstation_server():
    return ServerProfile(gpus_per_server=4, cpus_per_server=2, cpu_tdp_w=150.0)


@pytest.fixture
def profile_table(workstation_server):
    return ServerProfileTable(default=workstation_server)


@pytest.fixture
def zero_factors():
    zero = ImpactVector()
    return ImpactFactors(
        logic_per_cm2=zero, memory_per_gb=zero, board_base=zero, cpu_production=zero
    )


@pytest.fixture
def simple_mixes():
    return {
        "FRA": ElectricityMix("FRA", 50.0, 1e-9),
        "POL": ElectricityMix("POL", 500.0, 1e-9),
        "WLD": ElectricityMix("WLD", 475.0, 1.2e-8),
    }
