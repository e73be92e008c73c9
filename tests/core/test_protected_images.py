"""Protected-image golden: a protect-path change that moves a byte fails.

Every corpus program's image and every protected image the benchmark
traffic asks for is frozen as its ``BinaryImage.fingerprint()``:

* the six corpus programs as built;
* the 24 explicit protections, each program's ``digest_<program>``
  under each of the four strategies (the ``protect_explicit`` traffic);
* the §VII-B auto-selected protections of gzip and wget (the
  ``protect_auto`` traffic).

Each image is protected cold, then again from a fresh on-disk cache
session over the same directory: the second pass must be a cache hit
with the same fingerprint, since a cache hit returns the same image
bytes.  A refactor or speed change must leave this golden alone.

Regenerate after an intentional change to protected output with::

    PYTHONPATH=src python -m tests.core.test_protected_images

which prints the ``GOLDEN`` dict to paste over the one below.
"""

import pytest

from repro.cache import cache_session
from repro.core import STRATEGIES, Parallax, ProtectConfig
from repro.corpus import PROGRAM_NAMES, build_program

#: Programs whose protection the §VII-B selection chooses.
AUTO_PROGRAMS = ("gzip", "wget")

#: label -> image fingerprint.  Labels: ``<program>`` for the built
#: image, ``<program>/<strategy>`` for an explicit ``digest_<program>``
#: protection, ``<program>/auto`` for the auto-selected one.
GOLDEN = {
    "wget": "cde9bba0962e5d5067044e4053a4a635929756f53b371cf9b647c9c2942f2f85",
    "nginx": "84c45bf5ba2bf288fb52c0a4ba4ea336419f1a92e6f759b1673e68b07a50910b",
    "bzip2": "f49aef6907e7f5388441260864fb91cb4b9e00efc6e72eb77b82d69b99b0702b",
    "gzip": "a24807755b3fd0150fab063938d8e21dc6d2de255a88bda63ee99c2f2205e640",
    "gcc": "6b631ee9440cb631754843b689a203bee8944b434588c0b7ff0e2120dc7a44b8",
    "lame": "f265c1acf8f6afc8f3855baddc8666c3c47a429a1accce7453643833aefce04e",
    "wget/cleartext": "0652a0eaa507a94e65bc2310d153cc0bbce16562866eca6481f8a0cf8b1b523f",
    "wget/xor": "28fe213e1d7004703d41cfade51d54773108217f4f706c984c33ce07401522d3",
    "wget/rc4": "62574928d6c6991a36e811926a645c65f0443ff55e52582d25b4af043ccda182",
    "wget/linear": "4d0b9ee3a9a511b3b09e7e4f155819fb9146974e0ecbb29bec7f955cf2366aca",
    "nginx/cleartext": "e876ae7a2a2a84da661c54f31571b266bd54ab5e14dd73fe1e515a64fe7a0657",
    "nginx/xor": "2549175406ac668c637daf2aaea5c080c77a8dff56ae674890ff73f1aa2ff25a",
    "nginx/rc4": "6589f86b68237fc0edede1e68dbbf24d9202dc708e8d6c494425fe444aa7fee2",
    "nginx/linear": "da5389b4c7ef4bde366f4f82806bc25a2f9f44ebb9999eeb346b72be6fca4ba8",
    "bzip2/cleartext": "d29c46fd7642aed757ad3527bc337483f05c28e9a953733a4fb62457449ed5f4",
    "bzip2/xor": "12dcd2e9b353a9620537d4a2c48f630e074acdd949f95a6caa8757e17322cb4e",
    "bzip2/rc4": "a2e28ba40df869b97698abbfc2ca7430ddd02263f67a81122ce2efcb0f27ef48",
    "bzip2/linear": "2b3bf0d083c99f49007bef3edda3f2652cb348169a715e1ca6dcaf23d8a2aace",
    "gzip/cleartext": "2c562f028fa2a598bf48248dfc9f01edfc0dac17931bff4154af3bea119497b3",
    "gzip/xor": "c2f51de4063d384dc8014d8b0584b82b53693f69753d4fa61b26e39e8ce12415",
    "gzip/rc4": "b4120385f304b65b88192bafa1946a918450dc6bfc4e529ac185b96f78efc47b",
    "gzip/linear": "48e8b04341201b0cd757ec6c828bf35a8c7fef748913b8d461657ac4a3e16d41",
    "gcc/cleartext": "27f8a9986f6b3a16eda7f7de79ab5f4c996904f49dbebefacd6b9a02cf86cc56",
    "gcc/xor": "73fda9400275b3798d86ea647b3233164f726bc4639fc831a35afb2682c4a890",
    "gcc/rc4": "4b8ebc291eba9378c9ea2271677324c22ef745f62a492272964ae0ba744fa2a6",
    "gcc/linear": "2ea6a0f97c60149fca98f38a011f6066e31f0a2c83bd9a8772e1ec20f279400e",
    "lame/cleartext": "59339bdaba99a8e0ff0f6fbe7972987c2e98970577bc448682cdf8327a25b98a",
    "lame/xor": "d89a4da9e7b64c262fd33545787f5a647f99a99e101d8514176bf48cff5e37cd",
    "lame/rc4": "f88d4b85901fcaaabb07036228b47872dc7e8c7b94f42c1f4254d1dcdbfab5c3",
    "lame/linear": "18d7e832b9c08f373a296129adebba55de6f8ed242eba9a35d33641c27997da2",
    "gzip/auto": "2c562f028fa2a598bf48248dfc9f01edfc0dac17931bff4154af3bea119497b3",
    "wget/auto": "0652a0eaa507a94e65bc2310d153cc0bbce16562866eca6481f8a0cf8b1b523f",
}


def _configs():
    """label -> (program, config) for every protection the golden pins."""
    configs = {}
    for name in PROGRAM_NAMES:
        for strategy in STRATEGIES:
            configs[f"{name}/{strategy}"] = (
                name,
                ProtectConfig(
                    strategy=strategy, verification_functions=[f"digest_{name}"]
                ),
            )
    for name in AUTO_PROGRAMS:
        configs[f"{name}/auto"] = (name, ProtectConfig())
    return configs


def _protect_all(programs, configs):
    """label -> (fingerprint, cached) for one pass over ``configs``."""
    results = {}
    for label, (name, config) in configs.items():
        protected = Parallax(config).protect(programs[name])
        results[label] = (protected.image.fingerprint(), protected.cached)
    return results


def _compute(cache_dir):
    """(image fingerprints, cold pass, warm pass) over every label."""
    programs = {name: build_program(name) for name in PROGRAM_NAMES}
    configs = _configs()
    with cache_session(cache_dir=cache_dir):
        cold = _protect_all(programs, configs)
    with cache_session(cache_dir=cache_dir):
        warm = _protect_all(programs, configs)
    images = {name: program.image.fingerprint() for name, program in programs.items()}
    return images, cold, warm


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    return _compute(str(tmp_path_factory.mktemp("protect-cache")))


def test_golden_covers_every_image():
    assert set(GOLDEN) == set(PROGRAM_NAMES) | set(_configs())


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_corpus_image_matches_golden(passes, name):
    images, _cold, _warm = passes
    assert images[name] == GOLDEN[name]


@pytest.mark.parametrize("label", sorted(_configs()))
def test_protected_image_matches_golden_cold_and_cached(passes, label):
    _images, cold, warm = passes
    cold_fingerprint, cold_cached = cold[label]
    warm_fingerprint, warm_cached = warm[label]
    assert not cold_cached
    assert cold_fingerprint == GOLDEN[label], (
        f"{label}: protected image drifted from the golden fingerprint. "
        "If the change is intentional, regenerate and say why: "
        "PYTHONPATH=src python -m tests.core.test_protected_images"
    )
    assert warm_cached
    assert warm_fingerprint == cold_fingerprint


def _regen():
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        images, cold, _warm = _compute(cache_dir)
    print("GOLDEN = {")
    for label, fingerprint in images.items():
        print(f'    "{label}": "{fingerprint}",')
    for label, (fingerprint, _cached) in cold.items():
        print(f'    "{label}": "{fingerprint}",')
    print("}")


if __name__ == "__main__":
    _regen()
