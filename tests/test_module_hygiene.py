"""Package hygiene: every module imports, is documented, and examples
at least parse."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def iter_modules():
    package_path = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_path)],
                                      prefix="repro."):
        yield info.name


class TestModules:
    def test_every_module_imports(self):
        for name in iter_modules():
            importlib.import_module(name)

    def test_every_module_documented(self):
        undocumented = []
        for name in iter_modules():
            module = importlib.import_module(name)
            doc = (module.__doc__ or "").strip()
            if len(doc) < 20:
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_classes_documented(self):
        undocumented = []
        for name in iter_modules():
            module = importlib.import_module(name)
            for attr_name in dir(module):
                if attr_name.startswith("_"):
                    continue
                attr = getattr(module, attr_name)
                if isinstance(attr, type) \
                        and attr.__module__ == name \
                        and not (attr.__doc__ or "").strip():
                    undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, undocumented


    def test_the_store_stack_does_not_import_networkx(self):
        """The store serves and checks without ever building a graph;
        networkx (a fifth of its cold import) belongs to the offline
        checker's callers, and the harness with its workloads and
        figure drivers to the simulator's.  A fresh interpreter: this
        one has them all."""
        code = ("import sys; "
                "import repro.store.server, repro.store.loadgen, "
                "repro.oracle.live; "
                "sys.exit(sorted(m for m in ('networkx', 'repro.harness', "
                "'repro.workloads') if m in sys.modules) or 0)")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0


class TestExamples:
    def test_examples_parse(self):
        import ast

        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            ast.parse(path.read_text(), filename=str(path))

    def test_examples_have_docstrings_and_main(self):
        import ast

        for path in sorted((REPO_ROOT / "examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), path.name
            names = {node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef,))}
            assert "main" in names, path.name


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
            assert (REPO_ROOT / name).is_file(), name

    def test_docs_directory(self):
        docs = {p.name for p in (REPO_ROOT / "docs").glob("*.md")}
        assert {"protocols.md", "simulator.md", "workloads.md",
                "mvm.md", "extending.md", "faq.md"} <= docs

    def test_experiments_covers_every_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for heading in ("Figure 1", "Figure 2", "Figure 4", "Figure 6",
                        "Figure 7", "Figure 8", "Table 1", "Table 2"):
            assert heading in text, heading
