"""Seeded workload generation is pinned draw for draw.

The order and kind of every random draw is part of a seeded workload: a
model that adds, drops or reorders one call produces a different trace for
the same seed, and every stored result and digest built on it moves. The
pins below are sha256 digests over the header and every record of each
registered model's output; the identities after them are the numpy
equivalences the vectorized models rely on, so a numpy release that breaks
one fails here rather than in a silently different workload.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import make_model, model_names

JOBS = 250

#: (model, machine size, seed) -> sha256 over the header entries and records.
PINS = {
    ("downey97", 32, 1): "3377b97c744aa869cbf0feda4ecfb9d3c252928706c89af408445abf0f1bf4e2",
    ("downey97", 32, 2): "cd9285688555291de96fd6581d661e2b237e0324da698e0d9da28cf1a791a014",
    ("downey97", 32, 3): "b396f820161c6a6ffd02b194258ad26b677f8291227bf35caf236175d300ccab",
    ("downey97", 128, 1): "048b7f5b18059ac6010de93da8f20432e1faae8f31a7f70b83aa82a9a9a37ab1",
    ("downey97", 128, 2): "335131a7152d89c23ff50789d5676de65eab2f6e951f69b877bc8cd68a68b91c",
    ("downey97", 128, 3): "796175e779feb9bdd49301806d95c8fc7f84002bd96855e5f55fe18625e167a2",
    ("feitelson96", 32, 1): "1ae3b867012fdbb5ff12fded0c7be2263e4fa070217791f7207924a9a9c1e302",
    ("feitelson96", 32, 2): "74e4536e504ba82a499f67b6f79e15d18094f09ace01be0ed61aee0f9ef9e08a",
    ("feitelson96", 32, 3): "862b771a508b44d1688a400fe7995e8e69899b8cbf62eca8a9f8e68e86cc26ea",
    ("feitelson96", 128, 1): "42a9872165a99d009d3d2ee58e340ac859b9aca21493b799656b011100f1b308",
    ("feitelson96", 128, 2): "f22b618069ee6f65010a640bd4e0aa5e773de96d3a8a2c64fdfda5a7efd7a701",
    ("feitelson96", 128, 3): "b25fa42fd5aa035412b8e241f292eb7a1748186d9eccfcb2da3424e37ca53cb1",
    ("jann97", 32, 1): "2743ed40c67b2b023ff0eb76e80448a651d676c8d7e3ae7f95265dd3c0b62d8e",
    ("jann97", 32, 2): "9e97c491859930a50681eb5b283da0439b9638873edf6b5fc2e922b2d729c512",
    ("jann97", 32, 3): "e0355cb8732bd98537ad60250fa7d2da829a7d9db04cf93744fe94a542245eff",
    ("jann97", 128, 1): "dd7fa22de0a23ae9cb58fa57e4793d9dfcd17b95552f90815513a4e2cadb137e",
    ("jann97", 128, 2): "1d90e7a36f85ba84f0fa6fd5b26df034e0dfde8aa184ccd8d0c3dcc600422e8c",
    ("jann97", 128, 3): "f45e69e211a4a886cc252857a77765b1fdfe04c7de264b1d982eb1bc5817d769",
    ("lublin99", 32, 1): "e37a0ddf9fb063abb2e6080a43144a4c613f11abd7cc0192681ad2cef292bf5f",
    ("lublin99", 32, 2): "340be1c6f5c13459bbbb823d37903950b6d7d5f080a29d035183353773405157",
    ("lublin99", 32, 3): "4ca8cf1e717cd4109ef1e9a2f6fcb86badf979c06920b709f319fa85297e592e",
    ("lublin99", 128, 1): "2658ec515d60a35d197ad183b66e40ea1707e0f36eda62ffa1e76484320e1f49",
    ("lublin99", 128, 2): "900490b2763f20bb3d51ab18f7e3bf72e9f685f91b3c8301ec7c0c19b678888b",
    ("lublin99", 128, 3): "0ecd8163d137f2a44f8d2d57b415d36e9407bfb9e0acc3a276a5fd1c8eb3d5ff",
    ("sessions", 32, 1): "0370d306c02f4de24f439ef776001206409566191fc0b49af7935cfe4606587b",
    ("sessions", 32, 2): "d528ff1b2340694052ccdb6f6b10459f564b856fdba61c35b1be060fab821cbc",
    ("sessions", 32, 3): "c1dfc5ba91facad94e8faf6153c1d401df869e89ba806bf8097bc252845074f7",
    ("sessions", 128, 1): "e4b012bb47dce765a2dbf958515f2479c6207b34bd995c055d47a9fdc478f6cb",
    ("sessions", 128, 2): "e3c02012798c74599de7141000e71c0634e11546580ae43c64a2f758206b2b79",
    ("sessions", 128, 3): "bb83871c949797feb3151265fa2c421991daf6d2baf54d089217ea4903aa48c3",
    ("uniform", 32, 1): "0b0a262e52084e9a6e7e66d6d544bb52ce890f548b273ed16dc053879fd68d79",
    ("uniform", 32, 2): "333962b4c66958daefed5c1f963e2dcee0464408aee3abbedfc72becadb6c592",
    ("uniform", 32, 3): "85c10f5016b26d3fd1955b2c85c473e0cd910ad6aa42e075ecb59761924b8640",
    ("uniform", 128, 1): "257f79de9c5cd24795919b61af2fb6e51b6aa9f4054e20e341aba7307e987f9a",
    ("uniform", 128, 2): "982a04be5cc33c42397351047fd8c787e18c11dae62248f789790af7b17d2d19",
    ("uniform", 128, 3): "acd0dc861bb72d9042ebf4aa524c49546f11307b1be57a8984e3f77b0193623c",
}


def workload_digest(workload) -> str:
    digest = hashlib.sha256(repr(workload.header.entries).encode())
    for job in workload:
        digest.update(repr(job).encode())
    return digest.hexdigest()


def test_every_registered_model_is_pinned():
    assert sorted({model for model, _, _ in PINS}) == model_names()


@pytest.mark.parametrize("model,machine_size,seed", sorted(PINS))
def test_generation_matches_pin(model, machine_size, seed):
    workload = make_model(model, machine_size=machine_size).generate(JOBS, seed=seed)
    assert workload_digest(workload) == PINS[model, machine_size, seed]


class TestNumpyDrawIdentities:
    """The equivalences that let the models batch or rewrite draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_uniform_is_low_plus_range_times_random(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo, hi in [(0.7, 3.85), (3.85, 7.0), (1.2, 6.0), (0.0, 1e4)] * 50:
            assert a.uniform(lo, hi) == lo + (hi - lo) * b.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_choice_is_integers_into_the_pool(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        pool = np.arange(10, 16)
        for _ in range(200):
            assert a.choice(pool) == pool[b.integers(0, len(pool))]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_integers_equal_one_sized_draw(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scalars = [a.integers(0, 6) for _ in range(301)]
        assert scalars == b.integers(0, 6, size=301).tolist()
        # A uint32 half left over from the draws above carries into the next.
        assert a.integers(1, 151, size=(7, 6)).tolist() == [
            [b.integers(1, 151) for _ in range(6)] for _ in range(7)
        ]
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_uniforms_equal_one_sized_draw(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scalars = [a.uniform(1.5, 8.0) for _ in range(301)]
        assert scalars == b.uniform(1.5, 8.0, size=301).tolist()
        assert a.random() == b.random()
