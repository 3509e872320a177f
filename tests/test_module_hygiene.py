"""Package hygiene: every module imports, is documented, and examples
at least parse."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: what serving, checking and benchmarking the store must never import
STORE_NEVER_LOADS = (
    "repro.sim.engine", "repro.tm", "repro.skew", "repro.harness",
    "repro.workloads", "repro.structures", "repro.oracle.fuzz",
    "repro.oracle.shrink", "repro.obs.spans", "repro.obs.live",
    "repro.obs.flight", "repro.obs.profile")


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


    def test_store_process_loads_the_store_not_the_simulator(self, tmp_path):
        """A read-write, a read-only and an aborted transaction over a
        socket, the offline check of their rows and ``sitm-store bench``
        load none of the simulator, in a fresh interpreter."""
        code = textwrap.dedent(f"""
            import asyncio, json, pathlib, sys
            from repro.oracle.live import LiveHistoryMonitor, check_rows
            from repro.store import StoreClient, StoreConfig, StoreServer
            from repro.store.cli import main

            async def drive(log):
                server = StoreServer(StoreConfig(shards=2), record_path=log,
                                     monitor=LiveHistoryMonitor(2))
                client = await StoreClient.connect(await server.start())
                for txn in ({{"a": 1}}, {{}}, None):
                    await client.begin()
                    await client.read("a")
                    for key, value in (txn or {{}}).items():
                        await client.write(key, value)
                    reply = await (client.commit() if txn is not None
                                   else client.abort())
                    assert reply["ok"], reply
                client.close()
                await server.stop()
                assert not server.monitor.violations

            out = pathlib.Path({str(tmp_path)!r})
            asyncio.run(drive(out / "rows.jsonl"))
            rows = [json.loads(line) for line in
                    (out / "rows.jsonl").read_text().splitlines()]
            assert len(rows) == 3 and not check_rows(rows, 2), rows
            assert main(["bench", "--shards", "2", "--sessions", "2",
                         "--txns", "3"]) == 0
            sys.exit(sorted(set({STORE_NEVER_LOADS!r}) & set(sys.modules))
                     or 0)
            """)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


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
