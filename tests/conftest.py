"""Checks that run alongside every test."""
import pytest
import yaml

from biphoton import sources


def parse(text, loader):
    """The data ``loader`` gives for ``text``, or the type of the error that ``load_scenario`` catches."""
    try:
        return yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:
        return type(exc)


@pytest.fixture
def oracle_quadrature(monkeypatch):
    """8 pump nodes per FWHM over +-4 FWHM in the builders, returned for the scalar oracles.

    The scalar-loop oracles take several times longer at the builders'
    257 nodes; the comparison holds on any quadrature both sides share.
    """
    monkeypatch.setattr(sources, "POINTS_PER_FWHM", 8)
    monkeypatch.setattr(sources, "HALFWIDTH_FWHMS", 4.0)
    return dict(points_per_fwhm=8, halfwidth_fwhms=4.0)


@pytest.fixture(autouse=True)
def yaml_files_parse_alike(request):
    """Every YAML file a test writes parses the same under libyaml as under pure PyYAML."""
    if "tmp_path" not in request.fixturenames or not hasattr(yaml, "CSafeLoader"):
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    for path in sorted(tmp_path.rglob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        assert parse(text, yaml.CSafeLoader) == parse(text, yaml.SafeLoader), path.name
