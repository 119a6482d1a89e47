from pathlib import Path

import transientscan


def test_every_public_name_resolves():
    # a name removed from a module but left in __all__ fails here, not at a
    # user's star import
    missing = [name for name in transientscan.__all__ if not hasattr(transientscan, name)]
    assert missing == []
    namespace = {}
    exec("from transientscan import *", namespace)
    assert set(transientscan.__all__) <= namespace.keys()


def test_readme_library_example_runs_as_shown(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == block.count("print(")
