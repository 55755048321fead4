"""Golden digests of ``run_scalable``, of ``scalestream scan`` and of the
files of a run directory.

``run_scalable`` runs on small synthetic streams.  Coordinates are
multiples of 1/8 and timestamps are integers, so every squared distance and
every modelled instant is computed exactly and the digests do not depend on
the platform's math library.  Each case hashes the predicted labels of every
cumulative output and the simulated timeline, the latter in the layout it
was recorded in: one event list in which each refinement is an event naming
its scale and arrival (``old_event_list``).  The digests were recorded
before the cascade began refining the predictor's context in place; a change
in any label or instant shows here.  The ``no-fusion`` digests, which pin
the unfused schedule that starts each scale without waiting for the
previous output, were recorded before the simulated schedules shared one
start rule, and keep the key they were recorded under.

The scan digests hash the ``stream.bin`` that ``scalestream scan`` writes.
The ray directions come from numpy's ``sin`` and ``cos``, so these digests
hold for the numpy build they were recorded with (as do the stream digests
in ``perfbench/references.json``).  They were recorded before the slab test
was rewritten one axis at a time; a change in any point, label or timestamp
shows here.  The boundary scene's digest was re-recorded once, when a ray in
a box's face plane began to hit that box (see ``BOUNDARY_SCENE``).

The report digests hash, one file each, the ``metrics.json`` that
``scalestream run --stream`` writes for a lattice stream and the
``metrics.csv``, ``miou_vs_scale.svg`` and ``timeline.svg`` that
``scalestream report`` then renders from the run directory.  Such a stream
carries no scanner metadata, so the run draws no coverage curve and calls no
math-library function; the digests hold on every platform.  They were
recorded as one digest per run before the report became the dict that
``metrics.json`` holds, and split into one per file while ``run`` still
rendered the three views itself; ``report`` must reproduce every byte.  The
one exception is the ``named`` case, whose class names sort in another order
than their ids: ``report`` writes the ``iou_*`` rows of its ``metrics.csv``
in the class-name order that ``metrics.json`` keeps, where ``run`` wrote
them in class-id order, so that file has a new digest.  The row digests,
recorded with the old ones, pin every ``metrics.csv``'s rows as a multiset.

The CSV digests hash each ``cumulative_scale_<i>.csv`` of those runs.  They
were recorded when ``run`` still wrote the CSVs itself; ``report --csv`` now
renders them from the run's ``labels.npz`` and must reproduce every byte.

The labels digests hash the ``labels.npz`` of those runs.  They were
recorded when ``write_labels`` still built the zip member by member with
``zipfile``; ``np.savez`` must reproduce every byte.  Like the report
digests they hold on every platform; a change in how ``zipfile`` or
``np.lib.format`` lays out a file would show here.
"""

import hashlib
import json

import numpy as np
import pytest

import scalestream.cli as cli
from scalestream import (LabelMap, PartitionSpec, PointStream,
                         PredictorConfig, TimingModel, UpdateConfig,
                         make_seed_cloud, run_scalable, write_stream)

from conftest import old_event_list


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
    events = old_event_list(timeline.to_dict())
    h.update(json.dumps({"events": events}, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


CASES = [(s, p, k, o) for s in STREAMS
         for p in ("noisy-oracle", "seeded-knn")
         for k in (None, 1, 5) for o in ("sim", "sim-serial")]
# seeded-knn refuses the unfused schedule
CASES += [(s, "noisy-oracle", k, "sim-unfused") for s in STREAMS
          for k in (None, 1, 5)]
#: each schedule's name in the digest keys
SCHEDULE_KEYS = {"sim": "full", "sim-serial": "none", "sim-unfused": "full/no-fusion"}


@pytest.mark.parametrize("stream_name,variant,k,mode", CASES, ids=[
    "-".join(map(str, c[:3])) + "-" + SCHEDULE_KEYS[c[3]].replace("/", "-")
    for c in CASES])
def test_run_scalable_golden_digest(stream_name, variant, k, mode):
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
        TimingModel(mode=mode))
    key = f"{stream_name}/{variant}/k={k}/{SCHEDULE_KEYS[mode]}"
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


def _named(stream):
    """``stream`` with class names that sort in another order than their
    ids."""
    return PointStream(stream.positions, stream.labels, stream.timestamps,
                       stream.class_count,
                       LabelMap(("wall", "floor", "chair", "door")))


REPORT_STREAMS = {
    **STREAMS,
    # scale 1, [0, 10], holds no point: its mIoU is null
    "empty-first": (lambda: _stream(7, 200, 32, 50, gap=(-1, 10)),
                    (10, 20, 30, 40, 50)),
    # twelve scales: the origin_miou keys sort as "1", "10", "11", "12", "2"
    "many": (lambda: _stream(8, 360, 32, 120), tuple(range(10, 121, 10))),
    "named": (lambda: _named(STREAMS["gapped"][0]()), STREAMS["gapped"][1]),
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
VIEW_RUNS = {**REPORT_RUNS, "named": ("named", [])}

#: sha256 of each file of each run directory once ``report`` has run.
REPORT_GOLDEN = {
    "noisy-oracle": {
        "metrics.json":
            "a891f0604d8230a815d4b23055c1f1bc6d2031f30dfa6112e06953fb7f7ebf8a",
        "metrics.csv":
            "c0716c0f80e67c7fa5ff338697d7ce459bd07c9391546747fe237d3952291ce2",
        "miou_vs_scale.svg":
            "e969ced09dd13767a53e004e562d51cbfff4964d6f9d2ef3fa5d7fb67f79c327",
        "timeline.svg":
            "6b0d40b61608e2c4bfc45055ccabdf4ea8d2de815a763e85e18e7cce06591740",
    },
    "seeded-knn": {
        "metrics.json":
            "4d7e83100c51e8ae6233566e5026c86bb79202272f038a4311a443f5d3788502",
        "metrics.csv":
            "2c7cfb031135de17ca03122e8d7e70d1d7d43fd9e4e38fb4415b564ce9e7ce0f",
        "miou_vs_scale.svg":
            "28052b2b99e272003437fc52de3b905b94c932139e84bb6bb51c555937f45ba9",
        "timeline.svg":
            "6b0d40b61608e2c4bfc45055ccabdf4ea8d2de815a763e85e18e7cce06591740",
    },
    "skip-unrefined": {
        "metrics.json":
            "46779889e1d2faa04d06887496498bfa5800ef2bc086ba1e1244b544fce85575",
        "metrics.csv":
            "e7f9dd70db14a0679ca436b093bd34dbf9bd92357d814a21ef392b796125d191",
        "miou_vs_scale.svg":
            "f0f10f1cac004b514f2e81ea449492c964479c6d20579872ab534250e70f3903",
        "timeline.svg":
            "d32f0e4a2ceaaf878b7626c7aa4f24469ec6a07061feb2b0fee3376cdf600704",
    },
    "no-update": {
        "metrics.json":
            "2fc9015e13aad652b3b64d798f465915c2d1bdf594e9ff69d6da7c589f00e431",
        "metrics.csv":
            "5118fad765992fd5695792c943c341a32a0974da24efe65b7fb266d055104327",
        "miou_vs_scale.svg":
            "5e6b82ff39293da226da1f3bc515971bfb5ff64eef50ccbc70146505dfc637a7",
        "timeline.svg":
            "9c5e85d72d91e611cb62bfa2fc7fe2362beb0fa224de277b8aff01c98b7fff34",
    },
    "empty-first": {
        "metrics.json":
            "160379131e5d283399fab079242c6f424becd0f054ea623bf6fc372edaece8c4",
        "metrics.csv":
            "8f94e46c7db6c7ff92f3551f09dabbc2192f92e5fb2d7f115818e95587e56cf0",
        "miou_vs_scale.svg":
            "701ae8628ea5b74472dd63b755a7e16bc4247175b4d7a057b72a84a08d2beb63",
        "timeline.svg":
            "f07713c6d8e2b93c5421f133f86e9825e1688dd3651bc226b8e6aaeb99cca5df",
    },
    "many": {
        "metrics.json":
            "ab2ed91379b984f407990942d800940e35972c626ea53b3e031a9a3837fae368",
        "metrics.csv":
            "e38672431ae3032f89fe55eec294bf0bf2225db1fd001715ec9e23f556d1f40f",
        "miou_vs_scale.svg":
            "e13a55922048d2b59dffcb34ed79c508601b6a9af17cf96aa96641d258744b37",
        "timeline.svg":
            "28c85962c318303d41d249912fc7ac89b3ead20e318dbbc1535cbd22fae5c924",
    },
    "named": {
        "metrics.json":
            "f7c76c9c49d93e052c6f1df5c050427d64e850da443f0f2817993117f67ef879",
        # the iou_* rows in class-name order; run wrote them in class-id
        # order, as 1e2e0bb8ea8de996f7910348a4eae470efca53c7b6fb25b5b958c729cd17a278
        "metrics.csv":
            "63e890ee5982754c5b5d6d00f214c7e165a7ec56c746158fce2893fa750b7a04",
        "miou_vs_scale.svg":
            "e969ced09dd13767a53e004e562d51cbfff4964d6f9d2ef3fa5d7fb67f79c327",
        "timeline.svg":
            "6b0d40b61608e2c4bfc45055ccabdf4ea8d2de815a763e85e18e7cce06591740",
    },
}

#: sha256 of the sorted lines of each run's metrics.csv, as ``run`` wrote it.
METRICS_CSV_ROWS_GOLDEN = {
    "noisy-oracle":
        "ae94c1475201a3cb0623777d50d20f27fd5cdd369178eba5c18b5fe57576c113",
    "seeded-knn":
        "6bc9178d2df4233a63e9055c12984405167798a6e7cdf46a2801e88738d59330",
    "skip-unrefined":
        "6f368f347a8c76faf0d4ffa529924aa3934e43abea0f71ab5f3c63660980e99f",
    "no-update":
        "44daf78e89931e0ba3049d56cd48bf638f2325306a837e5b3459acf57ef28f4e",
    "empty-first":
        "be8662ef631ee7a270a00ebed4ffd7b3579a814a5ca1e295c9cf385ebd76fb09",
    "many":
        "3d627e7812e792e095f17cc82bc038a127c165b9a80842a02ea08b5592335382",
    "named":
        "49ad618b4ce5bb5e9c6747c8826f91200096766dc99e378040596275a9bd43de",
}

#: sha256 of cumulative_scale_1.csv, cumulative_scale_2.csv, ... of each run.
REPORT_CSV_GOLDEN = {
    "noisy-oracle": (
        "9552ab2d995c3fda93229938c7c79cba27fbf1f759d1769e8a23f72e376364bd",
        "04b4cb25c297592a45757acbec8c4c9dadbbb150efa59943e11d10c47de21f0f",
        "04b4cb25c297592a45757acbec8c4c9dadbbb150efa59943e11d10c47de21f0f",
        "64c96433b97a081b967894c1cc6d66e058458db830bf59bfe43c54976ea95e54",
        "9523b3c71b4d663a520b43f74db8dd0b36385563091073a7b018a14ca7870d94",
    ),
    "seeded-knn": (
        "1799d930bb840708ef1c8bb9ab74b99f3ff6d1bff2c1f695d1c4b4009928b88f",
        "75d2d474f7076897c1410f85fadb534766b407b5e787cb29e794e80fefa7b2af",
        "75d2d474f7076897c1410f85fadb534766b407b5e787cb29e794e80fefa7b2af",
        "451b9d4c4724f3aeee3c85959538dcc51ac01f3a397159bf9ae31d5c79c1b1de",
        "38bd3b8db6302766038743c6bc1f2d3fef5261b7eeb41fb0c3e4c296c2013859",
    ),
    "skip-unrefined": (
        "e2393b8bbd20c86a3434fdd656e8d3c43ce03214ec2e40d49d677842532629db",
        "8ee5309cd5163448059812d2080261da35aa4450ce6adaf5aef07741480200f1",
        "be25fd1fd2910ed6796ad09781d0fe226dc3ce0817332af00a1204c630cbda79",
        "2a99cc7df3ba874e73c9194bad63431eec7b9d43cebb19a6486c8bae4c0ecd92",
    ),
    "no-update": (
        "e2393b8bbd20c86a3434fdd656e8d3c43ce03214ec2e40d49d677842532629db",
        "26c31b68233c7e47d71769d29c550e41c8a1b5c7499018276d97974df3e9a04e",
        "5d6f262c5747c4818d96ad4a1cd352ed23986841d1277b6db5bae7a3f2d6e3bd",
        "b43b00d424314bbaaeb1bc5b770416732a851de545a10d0ff7c00012c9d5571d",
    ),
    "empty-first": (
        "e20dc1f9ffaaac115bd3b3348b11bb413eb6c794e427f153f3011d053c5e156c",
        "96d53f24e940ea802a6bbef2a2077100297535c06622b9ce132167bdbd723185",
        "4ec2ee13fc32d810d401076ad48b74b58a60088f55014c2da4c05d823667e808",
        "cb21979825279d0606d0fcdf786366ded3eaaed49eec2a84f55aa1bb368dc944",
        "de7b9d2d1c9e7459c25d3fe2f2e0923db948bd4b2dc2adc0a9d637f421028954",
    ),
    "many": (
        "c86168336d080255582b52bd2d11d74e21e5db2cb06a8593aabd9376ebf18aae",
        "4f404465838d59c06f57cf723f7e533111feb8550eb2269e8a7bdf9c4e314bc3",
        "1066dc584598c2a284bbcabb0e4a423d2434f2f23bee9d39b6a987cfbfbc75d0",
        "cebca92e4c2ca5dbbff18ef20fd69b04d8929e329cb9c4ce4a397c3f9490905f",
        "a92c03cbefeecccc52d2dc99d5fb640d149d7baa8957a9a4147eb15e366d43c1",
        "0d22c197845cadfd9447e23e7d4a120f4adc7ea5efd929a8e255dd8134ecc498",
        "9fe16ed541fee50aaebc826b1cbbbfc5a64d2c138fcfb64c1d386deadf7a01ea",
        "efc2c8bb9f44a65e39303dfec0d63ff450cb331ab20a33aca6e79baeb7355d2c",
        "ab5c4fcf94c5bddbe009cf3063e7f5205856a0bea1a0c84c3cd38917aa6cfded",
        "bdf59dbd4d405a062f0c6883ca39d71c2e857951871caf1a957dd5edd06d0c87",
        "ed93a9d0bde89ebe10c462e93ee08f5eb4881c2165331cb51236c0f57ec47054",
        "60e64da9f9f83f01dc31293fd0a38c5815bf3966df405ab79a32864ff42df019",
    ),
}

#: sha256 of the labels.npz of each run.
LABELS_GOLDEN = {
    "noisy-oracle":
        "4c180fcb3b0dc47d1a982c6fad7a93564257bd83931c3877e00945977b0a311a",
    "seeded-knn":
        "088bdbaa1fe5114547c003f53b67271ecfb02e9c9bd00590f0f577402b8da518",
    "skip-unrefined":
        "ad903586c48dbd5349307d740c547538f39038d03b7be192acfa7210fee9944d",
    "no-update":
        "a6de5df7e7450c635ff00ed8582a6cedcf6df656b2a5f623267d842de24817cf",
    "empty-first":
        "f3df423908899875c67519f92feb695a561e0f991c47e7216ce3689eb746702f",
    "many":
        "5608e4942ad87ce59d10864d53d0acc5896c75be3836003c1ac238754f6ea93b",
}


def _report_run(name, tmp_path):
    """The directory of ``run --stream`` for report case ``name``, once
    ``report`` has rendered its views."""
    stream_name, args = VIEW_RUNS[name]
    make, cuts = REPORT_STREAMS[stream_name]
    path = tmp_path / "stream.bin"
    write_stream(make(), path)
    out = tmp_path / "run"
    assert cli.main(["run", "--stream", str(path), "--seed", "0",
                     "--cuts", " ".join(map(str, cuts)),
                     "--out-dir", str(out), *args]) == 0
    assert cli.main(["report", "--run-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", REPORT_RUNS)
def test_report_csv_golden_digest(name, tmp_path):
    out = _report_run(name, tmp_path)
    assert not list(out.glob("cumulative_scale_*.csv"))
    assert cli.main(["report", "--run-dir", str(out), "--csv"]) == 0
    digests = tuple(
        hashlib.sha256((out / f"cumulative_scale_{i}.csv").read_bytes()).hexdigest()
        for i in range(1, len(REPORT_CSV_GOLDEN[name]) + 1))
    assert digests == REPORT_CSV_GOLDEN[name], name
    assert not (out / f"cumulative_scale_{len(digests) + 1}.csv").exists()


@pytest.mark.parametrize("name", REPORT_RUNS)
def test_labels_npz_golden_digest(name, tmp_path):
    out = _report_run(name, tmp_path)
    digest = hashlib.sha256((out / "labels.npz").read_bytes()).hexdigest()
    assert digest == LABELS_GOLDEN[name], name


@pytest.mark.parametrize("name", VIEW_RUNS)
def test_run_report_files_golden_digest(name, tmp_path):
    out = _report_run(name, tmp_path)
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in REPORT_GOLDEN[name]}
    assert digests == REPORT_GOLDEN[name], name


@pytest.mark.parametrize("name", VIEW_RUNS)
def test_metrics_csv_holds_the_rows_run_wrote(name, tmp_path):
    """Every ``metrics.csv`` holds the rows that ``run`` wrote, and only its
    ``iou_*`` rows can come in another order: by class name."""
    rows = (_report_run(name, tmp_path) / "metrics.csv").read_text().splitlines()
    sorted_rows = "\n".join(sorted(rows)).encode("utf-8")
    assert hashlib.sha256(sorted_rows).hexdigest() == METRICS_CSV_ROWS_GOLDEN[name]
    iou = [r for r in rows if r.startswith("iou_")]
    assert iou == sorted(iou)
