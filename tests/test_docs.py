"""Documentation health: code snippets in docs/ must execute, and the
top-level documents must reference real files."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = ROOT / "docs"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks(path: pathlib.Path):
    return _BLOCK.findall(path.read_text())


@pytest.mark.parametrize("doc", ["vcal.md", "decompositions.md",
                                 "analysis.md"])
def test_doc_snippets_execute(doc):
    ns = {}
    for block in _blocks(DOCS / doc):
        exec(compile(block, f"<{doc}>", "exec"), ns)  # noqa: S102


def test_docs_exist():
    for doc in ("vcal.md", "decompositions.md", "generation.md",
                "analysis.md"):
        assert (DOCS / doc).exists()


def test_analysis_doc_covers_every_code():
    from repro.analysis import CODES

    text = (DOCS / "analysis.md").read_text()
    for code in CODES:
        assert code in text, f"docs/analysis.md misses {code}"


def test_example_program_specs_pair_up():
    programs = ROOT / "examples" / "programs"
    pals = sorted(programs.glob("*.pal"))
    assert pals, "examples/programs/ has no .pal programs"
    for pal in pals:
        assert pal.with_suffix(".spec").exists(), pal.name


def test_generation_doc_mentions_real_modules():
    text = (DOCS / "generation.md").read_text()
    for mod in ("doacross", "barriers", "ndplan", "nddist",
                "inspector", "reduction", "autoselect"):
        assert mod in text
        assert (ROOT / "src" / "repro" / "codegen" / f"{mod}.py").exists()


def test_design_experiment_index_points_at_real_benches():
    text = (ROOT / "DESIGN.md").read_text()
    for name in re.findall(r"`benchmarks/(test_\w+\.py)`", text):
        assert (ROOT / "benchmarks" / name).exists(), name


def test_experiments_references_real_benches():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for name in re.findall(r"`benchmarks/(test_\w+\.py)`", text):
        assert (ROOT / "benchmarks" / name).exists(), name


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for name in re.findall(r"python (examples/\w+\.py)", text):
        assert (ROOT / name).exists(), name
