"""Storage server models and the device-driver integration layer."""

from .aqm import (
    AQM_POLICIES,
    AdaptiveWindow,
    CoDelWindow,
    InflightWindow,
    make_window,
)
from .base import Server, ServiceTimeModel
from .cluster import SplitSystem
from .constant_rate import ConstantRateModel, constant_rate_server
from .disk import DiskModel, DiskParameters
from .driver import DeviceDriver
from .farm import ServerFarm, constant_rate_farm
from .sizesplit import SizeSplitSystem
from .ssd import SSDModel, SSDParameters

__all__ = [
    "AQM_POLICIES",
    "AdaptiveWindow",
    "CoDelWindow",
    "InflightWindow",
    "make_window",
    "SizeSplitSystem",
    "Server",
    "ServiceTimeModel",
    "SplitSystem",
    "ConstantRateModel",
    "constant_rate_server",
    "DiskModel",
    "DiskParameters",
    "DeviceDriver",
    "ServerFarm",
    "constant_rate_farm",
    "SSDModel",
    "SSDParameters",
]
