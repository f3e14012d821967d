"""Workloads: transaction templates, clients and the two benchmarks."""

from .base import TemplateCatalog, TransactionTemplate, TxnCall, Workload, sql_template
from .clients import ClientPool
from .microbench import MicroBenchmark
from .tpcc import TPCCBenchmark
from .tpcw import MIXES, MIX_UPDATE_FRACTION, TPCWBenchmark

__all__ = [
    "ClientPool",
    "MIXES",
    "MIX_UPDATE_FRACTION",
    "MicroBenchmark",
    "TPCCBenchmark",
    "TPCWBenchmark",
    "TemplateCatalog",
    "TransactionTemplate",
    "TxnCall",
    "Workload",
    "sql_template",
]
