"""Byte-identity gate: the artifact digest matches its committed manifest."""
from .artifact_digest import MANIFEST, library_versions, manifest, run


def parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """(library versions, {file: sha256}) of a manifest."""
    versions, hashes = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, version = line[2:].split()
            versions[name] = version
        else:
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return versions, hashes


def test_artifacts_match_the_manifest(tmp_path):
    pinned, expected = parse(MANIFEST.read_text())
    running = library_versions()
    assert running == pinned, (
        f"{MANIFEST.name} was written with "
        f"{', '.join(f'{k} {v}' for k, v in pinned.items())}, this run has "
        f"{', '.join(f'{k} {v}' for k, v in running.items())}: rerun "
        "`python -m tests.artifact_digest` on both versions and diff the outputs")
    run(tmp_path)
    _, actual = parse(manifest(tmp_path))
    changed = sorted(name for name in expected.keys() & actual.keys()
                     if expected[name] != actual[name])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    assert not (changed or missing or extra), (
        f"artifacts differ from {MANIFEST.name}: changed {changed}, missing {missing}, "
        f"extra {extra}")
