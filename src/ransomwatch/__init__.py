"""Ransomware monitoring-detection-response engine.

Three cooperating layers detect ransomware from file-system event streams:
decoy-file monitoring, semantic ransom-note scoring, and a multi-granularity
behavioral classifier. A trace simulator makes the whole pipeline trainable
and testable at desk scale.
"""

__version__ = "0.1.0"

from .events import (
    Alert,
    FileEvent,
    Level,
    Operation,
    ProcessWindow,
    Response,
    ThreatLevel,
    Trigger,
    TriggerKind,
    parse_event_log,
    serialize_events,
    window_events,
)
from .decoys import (
    DecoyKind,
    DecoyRegistry,
    DecoySpec,
    NameStyle,
    check_event,
    deploy,
    generate_decoy,
)
from .notes import (
    GenePool,
    SimilarityVerdict,
    build_pool,
    ngrams,
    similarity,
    tokenize,
)
from .features import Mode, build_graph, encode, extract_features
from .gbdt import BoostedForest, BoostParams, best_split, fit, grow_tree
from .pipeline import Engine, PipelineConfig, ReplayResult, metrics_report, run_live, run_replay
from .simulator import (
    BenignProfile,
    BenignSpec,
    Corpus,
    Mix,
    RansomwareSpec,
    ScenarioSpec,
    TreeSpec,
    build_corpus,
    generate,
    mix,
    write_scenario,
)
