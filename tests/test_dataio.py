"""Dataset directories are outside input: ``load_dataset`` rejects a
malformed or inconsistent one with one ValueError naming the file."""

import json

import numpy as np
import pytest

from pointdet.dataio import load_dataset, write_dataset


@pytest.fixture
def data_dir(tmp_path):
    write_dataset(tmp_path, seed=4, count=2, width=16, height=16)
    return tmp_path


def test_load_dataset_roundtrip(data_dir):
    images, gts, manifest = load_dataset(data_dir)
    assert images.shape == (2, 3, 16, 16)
    assert set(gts) == {0, 1} and manifest["count"] == 2


@pytest.mark.parametrize("kwargs", [dict(width=8), dict(width=16.5), dict(classes=0),
                                    dict(max_objects=0), dict(seed=-1), dict(seed=1.5),
                                    dict(seed=True), dict(seed="3"), dict(seed=None),
                                    dict(count=True)])
def test_write_dataset_checks_scene_arguments_before_creating_the_directory(tmp_path, kwargs):
    out = tmp_path / "data"
    for count in (0, 2):
        with pytest.raises(ValueError):
            write_dataset(out, **{"seed": 1, "count": count, **kwargs})
        assert not out.exists()


def test_images_of_another_shape_than_the_manifest_are_rejected(data_dir):
    np.savez(data_dir / "scenes.npz", images=np.zeros((5, 64, 64)))
    with pytest.raises(ValueError, match=r"scenes\.npz.*\(5, 64, 64\).*\(2, 3, 16, 16\)"):
        load_dataset(data_dir)


def test_missing_images_array_is_rejected(data_dir):
    np.savez(data_dir / "scenes.npz", pictures=np.zeros((2, 3, 16, 16)))
    with pytest.raises(ValueError, match=r"scenes\.npz.*'images'"):
        load_dataset(data_dir)


def test_truncated_manifest_is_rejected(data_dir):
    path = data_dir / "manifest.json"
    path.write_text(path.read_text()[:20])
    with pytest.raises(ValueError, match=r"manifest\.json.*malformed"):
        load_dataset(data_dir)


@pytest.mark.parametrize("manifest", [[], {"count": 2, "height": 16}, {"count": -1, "height": 16,
                                                                       "width": 16}])
def test_manifest_without_valid_sizes_is_rejected(data_dir, manifest):
    (data_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json"):
        load_dataset(data_dir)


@pytest.mark.parametrize("image_id", [2, -1])
def test_ground_truth_for_an_image_outside_the_dataset_is_rejected(data_dir, image_id):
    with open(data_dir / "gts.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps({"image_id": image_id}) + "\n")
    with pytest.raises(ValueError, match=rf"gts\.jsonl.*image_id {image_id} outside \[0, 2\)"):
        load_dataset(data_dir)
