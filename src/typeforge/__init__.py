"""Derived-datatype engine: constructor trees, flattening, pack/unpack,
normalization, and a two-party ping-pong benchmark harness with
executable performance guidelines."""

from .bench import (
    BenchCase,
    RunStats,
    nrep_schedule,
    run_case,
    run_pair,
    write_raw_json,
    write_stats_csv,
)
from .guidelines import (
    GuidelineCase,
    GuidelineVerdict,
    LayoutMismatch,
    check_alternatives,
    check_g1,
    check_g2_g3,
    check_g4,
    evaluate,
    write_verdicts_csv,
)
from .experiments import EXPERIMENT_IDS, ExperimentPlan, make_plan, run_experiment
from .layouts import BadParams, BuiltLayout, LayoutSpec, build, build_alternatives
from .normalizer import NormalizationReport, cost, descr_size, normalize
from .packer import (
    CompiledEngine,
    InterpretedEngine,
    RegionTooSmall,
    SizeMismatch,
    make_engine,
    pack,
    unpack,
)
from .transport import (
    Endpoint,
    PeerClosed,
    TransportUnavailable,
    make_pair,
    pingpong_packed,
    pingpong_raw,
    pingpong_typed,
)
from .typecore import (
    Base,
    BaseKind,
    CommittedType,
    Composite,
    Contiguous,
    FlatLayout,
    HVector,
    Indexed,
    IndexedBlock,
    MalformedType,
    Resized,
    Vector,
    commit,
    datatype_dumps,
    datatype_from_json,
    datatype_loads,
    datatype_to_json,
    equivalent,
    flatten,
)

__version__ = "0.1.0"
