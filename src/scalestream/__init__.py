"""scalestream: joint acquisition and semantic processing of
resolution-scalable 3D point streams.

The package simulates a Lissajous-scanning depth sensor over synthetic
labeled rooms, partitions the timestamped stream into resolution scales,
runs per-scale predictors asynchronously during acquisition, refines earlier
predictions through a KNN majority-vote cascade, and quantifies both
accuracy (mIoU, cost of scalability) and latency (overlap bounds, speedup,
first-prediction fraction) against a non-scalable baseline.
"""

from .assemble import AssembleError, CumulativeOutput, assemble
from .geometry import Primitive, camera_basis, slab_distances
from .metrics import (MetricsError, cost_of_scalability, coverage_curve, miou,
                      miou_by_origin)
from .partition import (DEFAULT_CUTS, Partition, PartitionError, PartitionSpec,
                        partition)
from .pipeline import (LatencyMetrics, PipelineError, Timeline, TimelineEvent,
                       TimingModel, latency_metrics, run_baseline, run_scalable)
from .predictors import (DEFAULT_ERROR_RATES, PredictorConfig, PredictorError,
                         make_seed_cloud, predict, predict_full)
from .scanner import (DEFAULT_TICKS_PER_PERIOD, CameraPose, LissajousConfig,
                      lissajous_direction, place_cameras, scan)
from .scene import Scene, SceneError, default_room, load_scene, parse_scene, scene_text
from .stream import (INDOOR_CLASSES, LabelMap, PointStream, StreamFormatError,
                     StreamValidationError, indoor_label_map, read_stream,
                     write_stream)
from .update import UpdateConfig, UpdateError, cascade_step, knn_batch

__version__ = "0.1.0"
