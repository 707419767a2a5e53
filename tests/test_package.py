"""The package namespace re-exports each layer module's public surface."""

import tfuncert
from tfuncert import certifier, cli, constants, norms, sampling, transforms, variational

LAYERS = (constants, sampling, transforms, norms, certifier, variational)


def test_package_all_is_the_union_of_the_layer_alls():
    names = [name for mod in LAYERS for name in mod.__all__]
    assert len(set(names)) == len(names)  # no name is public in two layers
    assert sorted(tfuncert.__all__) == sorted(["__version__", "main", *names])
    for mod in LAYERS:
        for name in mod.__all__:
            assert getattr(tfuncert, name) is getattr(mod, name), name
    assert tfuncert.main is cli.main
