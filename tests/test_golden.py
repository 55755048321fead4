"""Golden digests of ``run_scalable`` and of ``scalestream scan``.

``run_scalable`` runs on small synthetic streams.  Coordinates are
multiples of 1/8 and timestamps are integers, so every squared distance and
every modelled instant is computed exactly and the digests do not depend on
the platform's math library.  Each case hashes the predicted labels of every
cumulative output and the simulated timeline.  The digests were recorded
before the cascade began refining the predictor's context in place; a change
in any label or instant shows here.  The ``no-fusion`` digests, which pin
the schedule that starts each scale without waiting for the previous
output, were recorded before the simulated schedules shared one start rule.

The scan digests hash the ``stream.bin`` that ``scalestream scan`` writes.
The ray directions come from numpy's ``sin`` and ``cos``, so these digests
hold for the numpy build they were recorded with (as do the stream digests
in ``perfbench/references.json``).  They were recorded before the slab test
was rewritten one axis at a time; a change in any point, label or timestamp
shows here.  The boundary scene's digest was re-recorded once, when a ray in
a box's face plane began to hit that box (see ``BOUNDARY_SCENE``).

The report digests hash the ``metrics.json``, ``metrics.csv``,
``miou_vs_scale.svg`` and ``timeline.svg`` that ``scalestream run --stream``
writes for a lattice stream.  Such a stream carries no scanner metadata, so
the run draws no coverage curve and calls no math-library function; the
digests hold on every platform.  They were recorded before the report became
the dict that ``metrics.json`` holds; a change in any byte of those files
shows here.
"""

import hashlib
import json

import numpy as np
import pytest

import scalestream.cli as cli
from scalestream import (PartitionSpec, PointStream, PredictorConfig,
                         TimingModel, UpdateConfig, make_seed_cloud,
                         run_scalable, write_stream)


def _stream(seed, n, grid, t_max, gap=None):
    """``n`` points on a ``grid``-cell lattice with spacing 1/8, integer
    timestamps in ``[0, t_max]``, none inside ``gap`` when given."""
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, t_max + 1, size=n)
    if gap is not None:
        ts = ts[(ts <= gap[0]) | (ts > gap[1])]
    ts = np.sort(ts)
    positions = rng.integers(0, grid, size=(len(ts), 3)) / 8.0
    labels = rng.integers(0, 4, size=len(ts))
    return PointStream(positions, labels, ts, 4)


STREAMS = {
    # scale 3, (20, 30], holds no point
    "gapped": (lambda: _stream(5, 240, 32, 50, gap=(20, 30)),
               (10, 20, 30, 40, 50)),
    # four cells a side: distances and votes tie everywhere
    "ties": (lambda: _stream(6, 160, 4, 60), (15, 30, 45, 60)),
}

GOLDEN = {
    "gapped/noisy-oracle/k=None/full":
        "4f40110ff1dd547ae5640421e514a7f2395a7be0eaa92780d8a4eec898e96b57",
    "gapped/noisy-oracle/k=None/none":
        "dd1ead628c5ce5b836ec78785f399e355a6ca45a866c26601f1512429b3197d3",
    "gapped/noisy-oracle/k=1/full":
        "65ae03c2afdc737d2d1dd249f21321477d483d8814a5e381893d9f75072fa0ae",
    "gapped/noisy-oracle/k=1/none":
        "c48ad5d03d5790634cf6dc52687209c1831774997eb516d527b6a74aaf8bb7e5",
    "gapped/noisy-oracle/k=5/full":
        "58ef988004d56d42650848be07c0b609d2e2c7ae51f960263c7994845a89efb6",
    "gapped/noisy-oracle/k=5/none":
        "0ade504b710dea97fc5550e7bbd0db1867fa5e0791c154d1dcd75027b02216bb",
    "gapped/seeded-knn/k=None/full":
        "92868a1ae7bceabf0bf6aeab4527db3fa7f039eb7f9fcf8e768a7676bf083d50",
    "gapped/seeded-knn/k=None/none":
        "818b8eac8dfe2cf1b33160d1b6c4960b60fbb55c2481a063e3c897648dc3270a",
    "gapped/seeded-knn/k=1/full":
        "23e793dd50f9b3d81be44da92edad10b02a0e7e703d1357d7a3d5b60ed723a37",
    "gapped/seeded-knn/k=1/none":
        "d42e83edcac7f7eb0a319f4b0b60434c9a15c702d464084e443646951fd2070b",
    "gapped/seeded-knn/k=5/full":
        "1d493b88342b4a86f6341bf48b8bc6fa06bf9149f01a5fc1e49b53b9e3ddec39",
    "gapped/seeded-knn/k=5/none":
        "3df6b1e4ff37afb17b3189793ddf174d82be65980fa38b614c1168abf8ddba5b",
    "ties/noisy-oracle/k=None/full":
        "1783f65a523dce787f0e8e3cd2ae6a4a34f02089b732eae9dd612aa892842c6a",
    "ties/noisy-oracle/k=None/none":
        "f7b3e3c8e79863a15a681964e4015329257b138b0b2ce941434710a1d392d8c7",
    "ties/noisy-oracle/k=1/full":
        "0b97b1bf4458d6959b0c021329b50c17bc81676cac3be1ade630a859d5ab3496",
    "ties/noisy-oracle/k=1/none":
        "f70d2fcd3a8623889e0ee937da5694c1c466ed96d6007d8384aa4167286ff501",
    "ties/noisy-oracle/k=5/full":
        "2991cc6b13e00aec6120ea0d9991453cb7fbc4ee214a2aa922d405da2bc166c6",
    "ties/noisy-oracle/k=5/none":
        "5e2b8e0b4ce0a5a1f885c7d3eb595d077bcad98470864b2bb6f230e1b9d8f64d",
    "ties/seeded-knn/k=None/full":
        "4cedd6293fca309d6712f5cfb5621ef8617e90a907a9799da50058d1c19c009c",
    "ties/seeded-knn/k=None/none":
        "e4d73a288a73b443c900864c932a1ef378f0db9a7205d751c3be72d494674772",
    "ties/seeded-knn/k=1/full":
        "fdc03d8d17ddd53ae2f68f80a209c45e248a6f5357478635b6a422fc17a0b707",
    "ties/seeded-knn/k=1/none":
        "89dafe783799177fb1447d0884f7fe7d57b8c473644ea4a1e9eb13d323d7b4c0",
    "ties/seeded-knn/k=5/full":
        "5c0c34cffe2e614aac2955f4b64373da2b0f37c3e0995e1200b13ed40320e869",
    "ties/seeded-knn/k=5/none":
        "ca8822843577e2a71272f9eeea75563bf19a5aa12ccf0a66dbd4e619012c768a",
    "gapped/noisy-oracle/k=None/full/no-fusion":
        "d7082a0244860f570025b603d1b2fab4c0d9c1b69d229c9b050d2c7a61d5ead8",
    "gapped/noisy-oracle/k=1/full/no-fusion":
        "b3b796f484369734870e2a7b4d689ad0427a3437c3fbfde5bfc091f6da5fec9c",
    "gapped/noisy-oracle/k=5/full/no-fusion":
        "1021327fb364499042334dcd5fa8e8bc566ce6c54e576c340cb513e9e326052b",
    "ties/noisy-oracle/k=None/full/no-fusion":
        "234b6b486b4d3bb1d52dc66d984024dd6b980bb9ea49ba4f8e2c7163e376f64a",
    "ties/noisy-oracle/k=1/full/no-fusion":
        "44c85142a6e2a8a4a169e7a6bd7a2298aff1f462c544684338de5b621d8cf4c1",
    "ties/noisy-oracle/k=5/full/no-fusion":
        "2a0f7137734b3ce4545b0a16af0a943f43b35bef1557cf4fe1cd50b2c9cede4b",
}


def _digest(outputs, timeline) -> str:
    h = hashlib.sha256()
    for o in outputs:
        h.update(np.ascontiguousarray(o.pred_labels, dtype=np.int64).tobytes())
    h.update(json.dumps(timeline.to_dict(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


CASES = [(s, p, k, o, True) for s in STREAMS
         for p in ("noisy-oracle", "seeded-knn")
         for k in (None, 1, 5) for o in ("full", "none")]
# seeded-knn refuses fusion off; under overlap none fusion changes nothing
CASES += [(s, "noisy-oracle", k, "full", False) for s in STREAMS
          for k in (None, 1, 5)]


@pytest.mark.parametrize("stream_name,variant,k,overlap,fusion", CASES, ids=[
    "-".join(map(str, c[:4])) + ("" if c[4] else "-no-fusion") for c in CASES])
def test_run_scalable_golden_digest(stream_name, variant, k, overlap, fusion):
    make, cuts = STREAMS[stream_name]
    stream = make()
    cfg = PredictorConfig(variant=variant, seed=2,
                          error_rates=(0.4, 0.3, 0.2, 0.1, 0.05))
    if variant == "seeded-knn":
        cfg = PredictorConfig(variant=variant, seed_cloud=make_seed_cloud(
            stream, 0.1, seed=3))
    outputs, timeline = run_scalable(
        stream, PartitionSpec(cuts), cfg,
        None if k is None else UpdateConfig(k=k),
        TimingModel(overlap=overlap, fusion_dependency=fusion))
    key = f"{stream_name}/{variant}/k={k}/{overlap}" + ("" if fusion else "/no-fusion")
    assert _digest(outputs, timeline) == GOLDEN[key], key


# Pose 37 of the seed-0 placement sits at (2.95, 0.05, 1.5), on the room's
# mid-height plane, and looks at the room center (2, 2, 1.5): its tick-0 ray
# is horizontal, with a direction component of exactly zero along z.  That
# ray grazes the top face of the chair box and lies in the plane of the shelf
# rectangle; the board lies in the camera's own wall plane y = 0.05.  The
# tick-0 ray hits the chair's side face at y = 0.4; before grazing rays
# counted as inside the slab it passed the chair and hit the shelf at y = 1.
BOUNDARY_SCENE = """\
scene boundary
room 0 0 0 4 4 3
rect floor 0 0 0 4 4 0
rect wall 0 0 0 0 4 3
rect wall 4 0 0 4 4 3
rect wall 0 0 0 4 0 3
rect wall 0 4 0 4 4 3
box chair 2.4 0.4 0 2.9 0.9 1.5 chair-top-at-camera-height
rect table 1 1 1.5 3 3 1.5 shelf-in-camera-plane
rect board 0.5 0.05 1.6 1.5 0.05 2.5 board-in-camera-wall
"""

SCANS = {
    "default": [],
    "4x": ["--ticks", "262144", "--ticks-per-period", repr(262144 / 983)],
    "dropout": ["--dropout", "0.1"],
    "boundary": ["--scene", "{scene}", "--camera-index", "37"],
}

SCAN_GOLDEN = {
    "default":
        "4a3428bb1fbe7f3a76197e79362601413297fdcd37b81856d95d9a85be97b722",
    "4x":
        "061fd63d6e02a0ecd28cd68bd38e5f5f220bbd2e9f95e25a9d2f020c3e3a8a73",
    "dropout":
        "1917ebc26ba90453d813d5c6ab183a0b3ce1d134a0e8b4de3d58e011b6fc9254",
    "boundary":
        "16f8ec5154a99b6f1f5a2a14336398aa36e99de88162f17cfb1ce5fff6de7694",
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_golden_digest(name, tmp_path):
    scene = tmp_path / "boundary.scene"
    scene.write_text(BOUNDARY_SCENE)
    args = [a.format(scene=scene) for a in SCANS[name]]
    out = tmp_path / "scan"
    assert cli.main(["scan", "--out-dir", str(out), "--seed", "0", *args]) == 0
    digest = hashlib.sha256((out / "stream.bin").read_bytes()).hexdigest()
    assert digest == SCAN_GOLDEN[name], name


REPORT_STREAMS = {
    **STREAMS,
    # scale 1, [0, 10], holds no point: its mIoU is null
    "empty-first": (lambda: _stream(7, 200, 32, 50, gap=(-1, 10)),
                    (10, 20, 30, 40, 50)),
    # twelve scales: the origin_miou keys sort as "1", "10", "11", "12", "2"
    "many": (lambda: _stream(8, 360, 32, 120), tuple(range(10, 121, 10))),
}

REPORT_RUNS = {
    "noisy-oracle": ("gapped", []),
    "seeded-knn": ("gapped", ["--predictor", "seeded-knn",
                              "--seed-ref-fraction", "0.1"]),
    "skip-unrefined": ("ties", ["--skip-unrefined"]),
    "no-update": ("ties", ["--no-update"]),
    "empty-first": ("empty-first", []),
    "many": ("many", ["--error-rates", " ".join(["0.3"] * 12)]),
}

REPORT_GOLDEN = {
    "noisy-oracle":
        "a99cdd728e2dd4c8bff1fc5b72ac859e822fb498e84087e651f729ddb29fa496",
    "seeded-knn":
        "c901901d53caa2b63f180d28d7ef81ec677390be1c537ae95a51c349869b6263",
    "skip-unrefined":
        "11c244976fa2e1226c979f1c6607cadb1be04f9bcc7412f07d731df5279d54f1",
    "no-update":
        "8537308966212c14f027bd38470960f8baf8c1ac5c9b5603ad91c3ddb9d0594d",
    "empty-first":
        "ea8e947ca41f056388434332362a2b24ac03e148b70b3b0a966150dbf0cd2b68",
    "many":
        "dd6f1258155187fc42e3205ce83d3d3eafd2edc558cdcf437e8a94ec90f53249",
}

REPORT_FILES = ("metrics.json", "metrics.csv", "miou_vs_scale.svg",
                "timeline.svg")


@pytest.mark.parametrize("name", REPORT_RUNS)
def test_run_report_files_golden_digest(name, tmp_path):
    stream_name, args = REPORT_RUNS[name]
    make, cuts = REPORT_STREAMS[stream_name]
    path = tmp_path / "stream.bin"
    write_stream(make(), path)
    out = tmp_path / "run"
    assert cli.main(["run", "--stream", str(path), "--seed", "0",
                     "--cuts", " ".join(map(str, cuts)),
                     "--out-dir", str(out), *args]) == 0
    h = hashlib.sha256()
    for fname in REPORT_FILES:
        h.update((out / fname).read_bytes())
    assert h.hexdigest() == REPORT_GOLDEN[name], name
